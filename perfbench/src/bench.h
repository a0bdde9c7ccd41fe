/**
 * @file
 * Shared machinery of the end-to-end benchmark: command-line options,
 * metric report, in-memory span recorder, stamping source/sink
 * wrappers, order statistics and the standalone layer probes.
 *
 * Everything here calls only the library's public headers; nothing in
 * the library knows it is being measured.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "support/timing.h"
#include "zexec/pipeline.h"
#include "zir/compiler.h"

namespace perfbench {

using namespace ziria;

// ---------------------------------------------------------------------
// Options and report
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;     ///< tiny sizes, correctness only
    std::string workDir;    ///< private scratch (cache, trace files)
};

/** Named metrics with units, printed as the final JSON line. */
class Report
{
  public:
    void
    set(const std::string& name, double value, const std::string& unit)
    {
        metrics_[name] = {value, unit};
    }

    /** One JSON object: correct/attempted/failed/metrics. */
    std::string json(bool correct, uint64_t attempted,
                     uint64_t failed) const;

  private:
    struct Entry
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Entry> metrics_;
};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/**
 * In-memory span recorder for the traced run.  Spans are recorded only
 * on the benchmark's main thread, around its own calls into each layer;
 * a disabled recorder costs one branch per call site.
 */
class Tracer
{
  public:
    struct Span
    {
        const char* name;
        uint64_t startNs;
        uint64_t endNs;
        int32_t parent;   ///< index of the enclosing span, -1 at the root
        uint64_t req;     ///< request id: packet, frame, rate or round
    };

    bool enabled = false;

    int32_t
    begin(const char* name, uint64_t req = 0)
    {
        if (!enabled)
            return -1;
        spans_.push_back({name, nowNs(), 0, cur_, req});
        cur_ = static_cast<int32_t>(spans_.size() - 1);
        return cur_;
    }

    void
    end(int32_t id)
    {
        if (id < 0)
            return;
        spans_[static_cast<size_t>(id)].endNs = nowNs();
        cur_ = spans_[static_cast<size_t>(id)].parent;
    }

    const std::vector<Span>& spans() const { return spans_; }

    /** Self time (duration minus child coverage) summed per span name. */
    std::map<std::string, double> selfSeconds() const;

    /**
     * Share of the traced wall time of the root span @p root that no
     * layer span covers: the self time of the glue spans "run" and
     * "round", over the root's duration less the untraced rounds
     * ("round.untraced", recorded without children).
     */
    double unattributedShare(int32_t root) const;

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    int32_t cur_ = -1;
};

/** RAII span. */
class SpanScope
{
  public:
    SpanScope(Tracer& t, const char* name, uint64_t req = 0)
        : t_(t), id_(t.begin(name, req))
    {
    }
    ~SpanScope() { t_.end(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    Tracer& t_;
    int32_t id_;
};

// ---------------------------------------------------------------------
// Stamping endpoints
// ---------------------------------------------------------------------

/**
 * Records the time at which a running byte count first reaches each of
 * a sorted list of boundaries (the last byte of an operation: an OFDM
 * symbol, a packet).
 */
class Stamper
{
  public:
    void
    arm(const std::vector<uint64_t>* bounds, std::vector<uint64_t>* out)
    {
        bounds_ = bounds;
        out_ = out;
        i_ = 0;
        next_ = (bounds_ && !bounds_->empty()) ? (*bounds_)[0] : UINT64_MAX;
        if (out_)
            out_->assign(bounds_ ? bounds_->size() : 0, 0);
    }

    void
    at(uint64_t pos)
    {
        if (pos < next_)
            return;
        uint64_t t = nowNs();
        while (i_ < bounds_->size() && pos >= (*bounds_)[i_])
            (*out_)[i_++] = t;
        next_ = i_ < bounds_->size() ? (*bounds_)[i_] : UINT64_MAX;
    }

  private:
    const std::vector<uint64_t>* bounds_ = nullptr;
    std::vector<uint64_t>* out_ = nullptr;
    size_t i_ = 0;
    uint64_t next_ = UINT64_MAX;
};

/** Memory source that stamps operation ends and counts its calls. */
class BenchSource : public InputSource
{
  public:
    BenchSource(const std::vector<uint8_t>& buf, size_t width,
                bool timed = false)
        : buf_(buf), width_(width), timed_(timed)
    {
    }

    void stampAt(const std::vector<uint64_t>* bounds,
                 std::vector<uint64_t>* out)
    {
        stamp_.arm(bounds, out);
    }

    const uint8_t*
    next() override
    {
        uint64_t t0 = timed_ ? nowNs() : 0;
        ++calls_;
        const uint8_t* p = nullptr;
        if (width_ != 0 && pos_ + width_ <= buf_.size()) {
            p = buf_.data() + pos_;
            pos_ += width_;
            stamp_.at(pos_);
        }
        if (timed_)
            ns_ += nowNs() - t0;
        return p;
    }

    uint64_t calls() const { return calls_; }
    uint64_t ns() const { return ns_; }

  private:
    const std::vector<uint8_t>& buf_;
    size_t width_;
    bool timed_;
    size_t pos_ = 0;
    uint64_t calls_ = 0;
    uint64_t ns_ = 0;
    Stamper stamp_;
};

/**
 * Sink that copies into a preallocated buffer (checked after the timed
 * region) and stamps operation ends.  Output past the capacity is
 * counted, not stored, so an over-long output shows as a mismatch.
 */
class BenchSink : public OutputSink
{
  public:
    BenchSink(size_t width, size_t capacity, bool timed = false)
        : width_(width), timed_(timed)
    {
        data_.resize(capacity);
    }

    void stampAt(const std::vector<uint64_t>* bounds,
                 std::vector<uint64_t>* out)
    {
        stamp_.arm(bounds, out);
    }

    void
    put(const uint8_t* elem) override
    {
        uint64_t t0 = timed_ ? nowNs() : 0;
        ++calls_;
        if (len_ + width_ <= data_.size())
            std::memcpy(data_.data() + len_, elem, width_);
        len_ += width_;
        stamp_.at(len_);
        if (timed_)
            ns_ += nowNs() - t0;
    }

    /** Did the output equal @p ref byte for byte? */
    bool
    matches(const uint8_t* ref, size_t n) const
    {
        return len_ == n && std::memcmp(data_.data(), ref, n) == 0;
    }

    size_t bytes() const { return len_; }
    const uint8_t* data() const { return data_.data(); }
    uint64_t calls() const { return calls_; }
    uint64_t ns() const { return ns_; }

  private:
    size_t width_;
    bool timed_;
    std::vector<uint8_t> data_;
    size_t len_ = 0;
    uint64_t calls_ = 0;
    uint64_t ns_ = 0;
    Stamper stamp_;
};

// ---------------------------------------------------------------------
// Statistics and helpers
// ---------------------------------------------------------------------

double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in [0, 1]; 0 for an empty input. */
double percentile(std::vector<double> v, double q);

/**
 * Latency samples in windows of at least kMinSamples, so that each
 * window's p99 has ten samples beyond it.  p50 is taken over every
 * sample; p99 is the median of the per-window p99s, so one hiccup of
 * the shared host moves one window, not the run.
 */
class LatencyWindows
{
  public:
    static constexpr size_t kMinSamples = 1000;

    /** One sample; a window closes when it holds kMinSamples. */
    void add(double us);
    double p50() const { return percentile(all_, 0.50); }
    double p99() const;

  private:
    std::vector<double> all_, cur_, p99s_;
};

/**
 * A series' throughput over a run: the 90th percentile of its per-round
 * rates.  On a shared host, rounds that other tenants slow down fall
 * below it, and how many do changes from run to run; a slower program
 * moves every round.
 */
inline double
runRate(const std::vector<double>& perRound)
{
    return percentile(perRound, 0.9);
}

/** Seed mixer so each workload/purpose draws an independent stream. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/** Compiler options for one backend at `--opt all`. */
CompilerOptions optionsFor(Backend b, const std::string& cacheDir);

/** A Pipeline or a ThreadedPipeline, run through one interface. */
struct AnyPipeline
{
    std::unique_ptr<Pipeline> single;
    std::unique_ptr<ThreadedPipeline> threaded;

    size_t inWidth() const
    {
        return single ? single->inWidth() : threaded->inWidth();
    }
    size_t outWidth() const
    {
        return single ? single->outWidth() : threaded->outWidth();
    }
    RunStats run(InputSource& src, OutputSink& sink)
    {
        return single ? single->run(src, sink) : threaded->run(src, sink);
    }
};

/** One execution series of a workload. */
struct Series
{
    const char* name;  ///< metric suffix: "vm", "native", "native_2t"
    const char* span;  ///< span name of one run: "zexec.run.<name>"
    Backend backend;
    bool threaded;
};

extern const Series kSeries[3];

/** Compile @p comp for @p s; adds the wall time to @p setupSec. */
AnyPipeline compileFor(const CompPtr& comp, const Series& s,
                       const std::string& cacheDir, CompileReport* rep,
                       double* setupSec);

/** Accumulates CompileReport fields into zir/zvect/zopt/zcgen metrics. */
struct CompileTotals
{
    double frontend = 0, vectorize = 0, optimize = 0, build = 0;
    long vectGenerated = 0, vectKept = 0;
    long lutsBuilt = 0, lutBytes = 0;
    long regions = 0, hostBridges = 0, fallbacks = 0;

    void add(const CompileReport& r);
    void report(Report& out) const;
};

/** Per-run context shared by the workloads. */
struct Context
{
    Options opt;
    std::string cacheDir;  ///< private warm native cache
    Report report;
    Tracer tracer;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool mismatch = false;  ///< any output differed from its reference
    std::string control;  ///< Sora control readings (JSON object body)

    /**
     * Record a wrong output or a broken session: @p ops operations
     * failed and the run is not correct.  Prints one line to stderr.
     */
    void fail(const std::string& what, uint64_t ops);
};

/**
 * Run @p fn until @p seconds have passed (at least @p minRounds times);
 * @p fn gets the round index.
 */
template <typename Fn>
int
forRounds(double seconds, int minRounds, Fn&& fn)
{
    Stopwatch sw;
    int r = 0;
    while (r < minRounds || sw.elapsedSec() < seconds)
        fn(r++);
    return r;
}

/** Series run in slot @p k of round @p r: the order alternates. */
inline int
seriesAt(int r, int k)
{
    return r % 2 ? 2 - k : k;
}

/**
 * The span of one round of a traced run, where traced and untraced
 * rounds alternate: a traced round records "round" and every span under
 * it; an untraced one records only a childless "round.untraced", which
 * the trace shares leave out.  Outside traced runs it records nothing.
 */
class RoundSpan
{
  public:
    RoundSpan(Tracer& t, bool traced, int round)
        : t_(t), tracing_(t.enabled)
    {
        id_ = t.begin(traced ? "round" : "round.untraced",
                      static_cast<uint64_t>(round));
        t.enabled = tracing_ && traced;
    }
    ~RoundSpan()
    {
        t_.enabled = tracing_;
        t_.end(id_);
    }
    RoundSpan(const RoundSpan&) = delete;
    RoundSpan& operator=(const RoundSpan&) = delete;

  private:
    Tracer& t_;
    bool tracing_;
    int32_t id_;
};

/**
 * Median set-up time.  @p compileAll(sec, compiled) compiles every
 * pipeline of the workload, adding its wall time to `sec` and the
 * translation units the native backend had to compile to `compiled`.
 * A pass that compiled native code ran against a cold cache and is not
 * counted; passes repeat until @p minReps warm ones and @p minSec
 * seconds of them.
 */
template <typename Fn>
double
timeSetUp(Context& ctx, size_t minReps, double minSec, Fn&& compileAll)
{
    std::vector<double> warm;
    double spent = 0;
    for (int pass = 0;
         pass < 64 && (warm.size() < minReps ||
                       (spent < minSec && warm.size() < 50));
         ++pass) {
        double sec = 0;
        int compiled = 0;
        compileAll(sec, compiled);
        if (compiled == 0) {
            warm.push_back(sec);
            spent += sec;
        }
    }
    if (warm.empty())
        ctx.fail("native cache never warmed", 0);
    return median(warm);
}

/** Source/sink wrapper totals over the traced rounds. */
struct EndpointTotals
{
    uint64_t srcCalls = 0, sinkCalls = 0, srcNs = 0, sinkNs = 0;
    double elems = 0;  ///< workload elements driven

    void add(const BenchSource& src, const BenchSink& sink,
             double elemsDriven);
    /** zexec.{source,sink}_calls_per_elem and zexec.{source,sink}_s. */
    void report(Report& out) const;
};

// ---------------------------------------------------------------------
// Standalone layer probes (traced run)
// ---------------------------------------------------------------------

/**
 * The probes every traced run makes: a null kernel on each backend, the
 * SpscQueue, the dsp kernels, the wire codec over @p wireFrames (Data
 * payloads), a cold native compile of @p coldProgram, and the Sora
 * control.
 */
void runCommonProbes(Context& ctx, const CompPtr& coldProgram,
                     const std::vector<std::vector<uint8_t>>& wireFrames);

/**
 * The hand-written Sora-style control on seeded inputs: printed on the
 * run's `perfbench control` line, and as host.sora_tx_mbps /
 * host.sora_rx_msps in the traced run.
 */
void probeSora(Context& ctx);

/** One instrumented run for probeNodeCounters. */
struct CounterCase
{
    CompPtr comp;
    const std::vector<uint8_t>* input;
    double elems;  ///< workload elements in @p input
};

/**
 * zexec.advance_per_elem and zexec.supply_per_elem: node counters
 * (RunStats::metrics) of instrumented native builds driven over the
 * workload's inputs, summed over every node.
 */
void probeNodeCounters(Context& ctx, const std::vector<CounterCase>& cases);

/**
 * StageMetrics of 2-partition runs made with a span tracker attached
 * (queue waits are only timed then): zexec.stage_busy_share.{0,1} and
 * zexec.queue.*.
 */
struct StageProbe
{
    double wall = 0, busy[2] = {0, 0};
    double pushWait = 0, popWait = 0, pushStalls = 0, popStalls = 0;
    double elems = 0;

    /** Run @p p once over @p input; @p elemsDriven workload elements. */
    void run(ThreadedPipeline& p, const std::vector<uint8_t>& input,
             double elemsDriven);
    void report(Report& out) const;
};

/** Every zserve.* metric as 0 (workloads without a server). */
void reportNoServer(Context& ctx);

/** Write the span file and the trace.* shares. */
void finishTrace(Context& ctx, int32_t root, double tracedRate,
                 double untracedRate);

/** Workload entry points. */
int runTxBits(Context& ctx);
int runRxFrames(Context& ctx);
int runServeScrambler(Context& ctx);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
