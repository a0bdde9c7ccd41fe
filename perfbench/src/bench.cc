#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <thread>

#include "dsp/conv_code.h"
#include "dsp/fft.h"
#include "dsp/viterbi.h"
#include "sora/sora.h"
#include "support/rng.h"
#include "support/spsc_queue.h"
#include "wifi/tx.h"
#include "zexec/span.h"
#include "zparse/parser.h"
#include "zserve/wire.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

namespace {

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

std::string
Report::json(bool correct, uint64_t attempted, uint64_t failed) const
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, e] : metrics_) {
        if (!first)
            s += ", ";
        first = false;
        s += "\"" + name + "\": {\"value\": " + num(e.value) +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    s += "}}";
    return s;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

namespace {

/** Length of the union of [start, end) intervals. */
uint64_t
coveredNs(std::vector<std::pair<uint64_t, uint64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    uint64_t total = 0, curS = 0, curE = 0;
    bool open = false;
    for (const auto& [s, e] : iv) {
        if (!open || s > curE) {
            if (open)
                total += curE - curS;
            curS = s;
            curE = e;
            open = true;
        } else {
            curE = std::max(curE, e);
        }
    }
    if (open)
        total += curE - curS;
    return total;
}

} // namespace

std::map<std::string, double>
Tracer::selfSeconds() const
{
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans_.size());
    for (const auto& s : spans_)
        if (s.parent >= 0)
            kids[static_cast<size_t>(s.parent)].emplace_back(s.startNs,
                                                             s.endNs);
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        uint64_t dur = s.endNs - s.startNs;
        uint64_t cov = coveredNs(kids[i]);
        out[s.name] += static_cast<double>(dur - std::min(dur, cov)) * 1e-9;
    }
    return out;
}

double
Tracer::unattributedShare(int32_t root) const
{
    if (root < 0)
        return 0;
    const Span& r = spans_[static_cast<size_t>(root)];
    std::map<std::string, double> self = selfSeconds();
    double wall = static_cast<double>(r.endNs - r.startNs) * 1e-9 -
                  self["round.untraced"];
    if (wall <= 0)
        return 0;
    return (self["run"] + self["round"]) / wall;
}

bool
Tracer::writeJsonl(const std::string& path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    uint64_t t0 = spans_.empty() ? 0 : spans_[0].startNs;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        f << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << (s.startNs - t0)
          << ", \"end_ns\": " << (s.endNs - t0)
          << ", \"parent\": " << s.parent << ", \"req\": " << s.req
          << "}\n";
    }
    return static_cast<bool>(f);
}

// ---------------------------------------------------------------------
// Statistics and helpers
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double rank = std::ceil(q * static_cast<double>(v.size()));
    size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

void
LatencyWindows::add(double us)
{
    all_.push_back(us);
    cur_.push_back(us);
    if (cur_.size() < kMinSamples)
        return;
    p99s_.push_back(percentile(cur_, 0.99));
    cur_.clear();
}

double
LatencyWindows::p99() const
{
    // Too few samples for one full window: fall back to all of them.
    return p99s_.empty() ? percentile(all_, 0.99) : median(p99s_);
}

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

CompilerOptions
optionsFor(Backend b, const std::string& cacheDir)
{
    CompilerOptions o = CompilerOptions::forLevel(OptLevel::All);
    o.backend = b;
    o.cgenCacheDir = cacheDir;
    return o;
}

const Series kSeries[3] = {
    {"vm", "zexec.run.vm", Backend::Vm, false},
    {"native", "zexec.run.native", Backend::Native, false},
    {"native_2t", "zexec.run.native_2t", Backend::Native, true},
};

AnyPipeline
compileFor(const CompPtr& comp, const Series& s, const std::string& cacheDir,
           CompileReport* rep, double* setupSec)
{
    CompilerOptions o = optionsFor(s.backend, cacheDir);
    AnyPipeline p;
    Stopwatch sw;
    if (s.threaded)
        p.threaded = compileThreadedPipeline(comp, o, rep);
    else
        p.single = compilePipeline(comp, o, rep);
    if (setupSec)
        *setupSec += sw.elapsedSec();
    return p;
}

void
CompileTotals::add(const CompileReport& r)
{
    frontend += r.frontendSec;
    vectorize += r.vectorizeSec;
    optimize += r.optimizeSec;
    build += r.buildSec;
    vectGenerated += r.vect.generated;
    vectKept += r.vect.kept;
    lutsBuilt += r.build.lutsBuilt;
    lutBytes += static_cast<long>(r.build.lutBytes);
    regions += r.cgen.regions;
    hostBridges += r.cgen.hostBridges;
    fallbacks += r.cgen.fallbacks;
}

void
CompileTotals::report(Report& out) const
{
    out.set("zir.frontend_s", frontend, "s");
    out.set("zir.vectorize_s", vectorize, "s");
    out.set("zir.optimize_s", optimize, "s");
    out.set("zir.build_s", build, "s");
    out.set("zvect.generated", static_cast<double>(vectGenerated), "count");
    out.set("zvect.kept", static_cast<double>(vectKept), "count");
    out.set("zopt.luts_built", static_cast<double>(lutsBuilt), "count");
    out.set("zopt.lut_bytes", static_cast<double>(lutBytes), "bytes");
    out.set("zcgen.regions", static_cast<double>(regions), "count");
    out.set("zcgen.host_bridges", static_cast<double>(hostBridges),
            "count");
    out.set("zcgen.fallbacks", static_cast<double>(fallbacks), "count");
}

void
Context::fail(const std::string& what, uint64_t ops)
{
    failed += ops;
    mismatch = true;
    std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

namespace {

constexpr const char* kIdentitySrc =
    "repeat { seq { (x : int) <- take : int ; emit x } }";

/** ns per int32 element through a null kernel (median of 3). */
double
identityNs(Backend b, OptLevel level, const std::string& cacheDir,
           uint64_t elems)
{
    CompilerOptions o = CompilerOptions::forLevel(level);
    o.backend = b;
    o.cgenCacheDir = cacheDir;
    auto p = compilePipeline(parseComp(kIdentitySrc), o);
    std::vector<uint8_t> buf(4096 * 4);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(i * 7);
    size_t w = std::max<size_t>(p->inWidth(), 1);
    uint64_t chunks = elems * 4 / w;
    std::vector<double> ns;
    for (int k = 0; k < 3; ++k) {
        CyclicSource src(buf, w, chunks);
        NullSink sink;
        Stopwatch sw;
        RunStats st = p->run(src, sink);
        double e = static_cast<double>(st.consumed * w) / 4.0;
        ns.push_back(static_cast<double>(sw.elapsedNs()) / std::max(e, 1.0));
    }
    return median(ns);
}

void
probeIdentity(Context& ctx)
{
    SpanScope sp(ctx.tracer, "probe.identity");
    const uint64_t n = ctx.opt.smoke ? 1 << 12 : 1 << 20;
    Report& r = ctx.report;
    r.set("zexec.identity_ns_per_elem.vm",
          identityNs(Backend::Vm, OptLevel::All, ctx.cacheDir, n), "ns");
    r.set("zexec.identity_ns_per_elem.native",
          identityNs(Backend::Native, OptLevel::All, ctx.cacheDir, n), "ns");
    r.set("zexec.identity_ns_per_elem.vm_none",
          identityNs(Backend::Vm, OptLevel::None, ctx.cacheDir, n), "ns");
    r.set("zexec.identity_ns_per_elem.native_none",
          identityNs(Backend::Native, OptLevel::None, ctx.cacheDir, n),
          "ns");
}

void
probeSpsc(Context& ctx)
{
    SpanScope sp(ctx.tracer, "probe.spsc");
    const uint64_t n = ctx.opt.smoke ? 1 << 12 : 1 << 20;
    std::vector<double> one, two;
    for (int k = 0; k < 3; ++k) {
        SpscQueue q(4, 4096);
        uint8_t in[4] = {1, 2, 3, 4}, out[4] = {};
        Stopwatch sw;
        for (uint64_t i = 0; i < n; ++i) {
            q.push(in);
            q.pop(out);
        }
        one.push_back(static_cast<double>(sw.elapsedNs()) /
                      static_cast<double>(n));

        SpscQueue q2(4, 4096);
        Stopwatch sw2;
        std::thread prod([&q2, n] {
            uint8_t e[4] = {};
            for (uint64_t i = 0; i < n; ++i) {
                std::memcpy(e, &i, 4);
                q2.push(e);
            }
            q2.close();
        });
        uint64_t got = 0;
        while (q2.pop(out))
            ++got;
        prod.join();
        two.push_back(static_cast<double>(sw2.elapsedNs()) /
                      static_cast<double>(std::max<uint64_t>(got, 1)));
        if (got != n)
            ctx.fail("spsc probe lost elements", 0);
    }
    ctx.report.set("support.spsc_ns_per_elem.1t", median(one), "ns");
    ctx.report.set("support.spsc_ns_per_elem.2t", median(two), "ns");
}

void
probeDsp(Context& ctx)
{
    SpanScope sp(ctx.tracer, "probe.dsp");
    Rng rng(mixSeed(ctx.opt.seed, 0xd5b));
    const size_t bits = ctx.opt.smoke ? 1 << 10 : 1 << 16;
    std::vector<uint8_t> data(bits);
    for (auto& b : data)
        b = rng.bit();
    dsp::ConvEncoder enc(dsp::CodingRate::Half);
    std::vector<uint8_t> coded = enc.encode(data);
    std::vector<double> vit;
    for (int k = 0; k < 3; ++k) {
        dsp::ViterbiDecoder dec;
        std::vector<uint8_t> out;
        out.reserve(bits + 256);
        Stopwatch sw;
        for (size_t i = 0; i + 1 < coded.size(); i += 2)
            dec.inputPair(coded[i], coded[i + 1], out);
        dec.flush(out);
        vit.push_back(static_cast<double>(sw.elapsedNs()) /
                      static_cast<double>(bits));
        if (out.size() < bits ||
            !std::equal(data.begin(), data.end(), out.begin()))
            ctx.fail("viterbi probe did not decode its own encoding", 0);
    }
    ctx.report.set("dsp.viterbi_ns_per_bit", median(vit), "ns");

    dsp::Fft fft(64);
    const size_t syms = ctx.opt.smoke ? 256 : 1 << 15;
    std::vector<Complex16> in(64 * 64), out(64);
    for (auto& x : in) {
        x.re = static_cast<int16_t>(static_cast<int>(rng.below(4000)) - 2000);
        x.im = static_cast<int16_t>(static_cast<int>(rng.below(4000)) - 2000);
    }
    std::vector<double> ffts;
    int64_t sink = 0;
    for (int k = 0; k < 3; ++k) {
        Stopwatch sw;
        for (size_t i = 0; i < syms; ++i) {
            fft.forward(in.data() + (i % 64) * 64, out.data());
            sink += out[i % 64].re;
        }
        ffts.push_back(static_cast<double>(sw.elapsedNs()) /
                       static_cast<double>(syms));
    }
    if (sink == INT64_MIN)
        std::fprintf(stderr, "\n");  // keeps the FFT results observable
    ctx.report.set("dsp.fft64_ns_per_symbol", median(ffts), "ns");
}

void
probeWire(Context& ctx, const std::vector<std::vector<uint8_t>>& frames)
{
    SpanScope sp(ctx.tracer, "probe.wire");
    if (frames.empty())
        return;
    const int reps = ctx.opt.smoke ? 4 : 200;
    std::vector<uint8_t> wire;
    std::vector<double> enc, dec;
    for (int k = 0; k < 3; ++k) {
        Stopwatch sw;
        for (int r = 0; r < reps; ++r) {
            wire.clear();
            for (const auto& f : frames)
                serve::encodeFrame(wire, serve::FrameType::Data, f);
        }
        enc.push_back(static_cast<double>(sw.elapsedNs()) /
                      static_cast<double>(reps * frames.size()));
        uint64_t got = 0;
        Stopwatch sw2;
        for (int r = 0; r < reps; ++r) {
            serve::FrameParser parser;
            serve::Frame f;
            // Feed in socket-sized pieces, as a reader would.
            for (size_t off = 0; off < wire.size(); off += 16384) {
                parser.feed(wire.data() + off,
                            std::min<size_t>(16384, wire.size() - off));
                while (parser.next(f) == serve::FrameParser::Result::Frame)
                    ++got;
            }
        }
        dec.push_back(static_cast<double>(sw2.elapsedNs()) /
                      static_cast<double>(reps * frames.size()));
        if (got != reps * frames.size())
            ctx.fail("wire probe lost frames", 0);
    }
    ctx.report.set("zserve.wire_encode_ns_per_frame", median(enc), "ns");
    ctx.report.set("zserve.wire_decode_ns_per_frame", median(dec), "ns");
}

void
probeColdCompile(Context& ctx, const CompPtr& comp)
{
    SpanScope sp(ctx.tracer, "probe.cold_compile");
    namespace fs = std::filesystem;
    fs::path dir = fs::path(ctx.opt.workDir) /
                   ("cold-" + std::to_string(::getpid()));
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    CompileReport rep;
    Stopwatch sw;
    compilePipeline(comp, optionsFor(Backend::Native, dir.string()), &rep);
    double sec = sw.elapsedSec();
    fs::remove_all(dir, ec);
    if (rep.cgen.compiled == 0)
        std::fprintf(stderr, "perfbench: cold compile ran no compiler "
                             "(fallbacks %d)\n", rep.cgen.fallbacks);
    ctx.report.set("zcgen.cold_compile_s", sec, "s");
}

} // namespace

void
runCommonProbes(Context& ctx, const CompPtr& coldProgram,
                const std::vector<std::vector<uint8_t>>& wireFrames)
{
    probeIdentity(ctx);
    probeSpsc(ctx);
    probeDsp(ctx);
    probeWire(ctx, wireFrames);
    probeColdCompile(ctx, coldProgram);
    probeSora(ctx);
}

void
probeSora(Context& ctx)
{
    SpanScope sp(ctx.tracer, "probe.sora");
    Rng rng(mixSeed(ctx.opt.seed, 0x50a));
    std::vector<uint8_t> payload(ctx.opt.smoke ? 100 : 1500);
    for (auto& b : payload)
        b = static_cast<uint8_t>(rng.next());
    const int reps = ctx.opt.smoke ? 1 : 5;

    std::vector<double> tx;
    std::vector<std::vector<uint8_t>> bits;
    for (wifi::Rate r : wifi::allRates())
        bits.push_back(wifi::assembleDataBits(payload, r));
    for (int k = 0; k < reps; ++k) {
        uint64_t n = 0;
        Stopwatch sw;
        for (size_t i = 0; i < bits.size(); ++i) {
            auto out = sora::txDataSamples(bits[i], wifi::allRates()[i]);
            n += bits[i].size();
        }
        tx.push_back(static_cast<double>(n) / sw.elapsedSec() / 1e6);
    }

    std::vector<std::vector<Complex16>> frames;
    for (wifi::Rate r : wifi::allRates())
        frames.push_back(sora::txFrame(payload, r));
    std::vector<double> rx;
    for (int k = 0; k < reps; ++k) {
        uint64_t n = 0;
        Stopwatch sw;
        for (const auto& f : frames) {
            sora::RxResult res = sora::rxFrame(f);
            if (!res.crcOk)
                ctx.fail("sora control receiver missed a clean frame", 0);
            n += f.size();
        }
        rx.push_back(static_cast<double>(n) / sw.elapsedSec() / 1e6);
    }
    double txMbps = median(tx), rxMsps = median(rx);
    if (ctx.opt.trace) {
        ctx.report.set("host.sora_tx_mbps", txMbps, "Mbit/s");
        ctx.report.set("host.sora_rx_msps", rxMsps, "Msps");
    }
    ctx.control = "\"sora_tx_mbps\": " + num(txMbps) +
                      ", \"sora_rx_msps\": " + num(rxMsps);
}

void
probeNodeCounters(Context& ctx, const std::vector<CounterCase>& cases)
{
    SpanScope sp(ctx.tracer, "probe.node_counters");
    CompilerOptions o = optionsFor(Backend::Native, ctx.cacheDir);
    o.instrument = true;
    double advances = 0, supplies = 0, elems = 0;
    for (const CounterCase& c : cases) {
        auto p = compilePipeline(c.comp, o);
        MemSource src(*c.input, p->inWidth());
        NullSink sink;
        RunStats st = p->run(src, sink);
        elems += c.elems;
        for (size_t i = 0; st.metrics && i < st.metrics->nodes.size(); ++i) {
            const NodeMetrics& n = st.metrics->nodes[i];
            if (n.discarded)
                continue;
            advances += static_cast<double>(n.advances);
            supplies += static_cast<double>(n.supplies);
        }
    }
    elems = std::max(elems, 1.0);
    ctx.report.set("zexec.advance_per_elem", advances / elems, "1/elem");
    ctx.report.set("zexec.supply_per_elem", supplies / elems, "1/elem");
}

void
EndpointTotals::add(const BenchSource& src, const BenchSink& sink,
                    double elemsDriven)
{
    srcCalls += src.calls();
    sinkCalls += sink.calls();
    srcNs += src.ns();
    sinkNs += sink.ns();
    elems += elemsDriven;
}

void
EndpointTotals::report(Report& out) const
{
    double e = std::max(elems, 1.0);
    out.set("zexec.source_calls_per_elem",
            static_cast<double>(srcCalls) / e, "1/elem");
    out.set("zexec.sink_calls_per_elem", static_cast<double>(sinkCalls) / e,
            "1/elem");
    out.set("zexec.source_s", static_cast<double>(srcNs) * 1e-9, "s");
    out.set("zexec.sink_s", static_cast<double>(sinkNs) * 1e-9, "s");
}

void
StageProbe::run(ThreadedPipeline& p, const std::vector<uint8_t>& input,
                double elemsDriven)
{
    SpanConfig sc;
    sc.name = "perfbench";
    p.setSpans(std::make_shared<SpanTracker>(sc));
    p.setMetrics(std::make_shared<PipelineMetrics>());
    MemSource src(input, p.inWidth());
    NullSink sink;
    Stopwatch sw;
    p.run(src, sink);
    wall += sw.elapsedSec();
    p.setSpans(nullptr);
    elems += elemsDriven;
    const PipelineMetrics* m = p.metrics();
    for (size_t i = 0; m && i < m->stages.size(); ++i) {
        const StageMetrics& s = m->stages[i];
        if (i < 2)
            busy[i] += s.sec;
        pushWait += static_cast<double>(s.pushWaitNs) * 1e-9;
        popWait += static_cast<double>(s.popWaitNs) * 1e-9;
        pushStalls += static_cast<double>(s.producerStalls);
        popStalls += static_cast<double>(s.consumerStalls);
    }
}

void
StageProbe::report(Report& r) const
{
    double e = std::max(elems, 1.0);
    r.set("zexec.stage_busy_share.0", wall > 0 ? busy[0] / wall : 0,
          "share");
    r.set("zexec.stage_busy_share.1", wall > 0 ? busy[1] / wall : 0,
          "share");
    r.set("zexec.queue.push_wait_s", pushWait, "s");
    r.set("zexec.queue.pop_wait_s", popWait, "s");
    r.set("zexec.queue.push_stalls_per_elem", pushStalls / e, "1/elem");
    r.set("zexec.queue.pop_stalls_per_elem", popStalls / e, "1/elem");
}

void
reportNoServer(Context& ctx)
{
    Report& r = ctx.report;
    for (const char* n : {"zserve.sched_running_s", "zserve.sched_queued_s",
                          "zserve.sched_parked_s", "zserve.client_send_s",
                          "zserve.client_recv_wait_s"})
        r.set(n, 0, "s");
    r.set("zserve.out_frames_per_in_frame", 0, "ratio");
    r.set("zserve.rejected", 0, "count");
    r.set("zserve.evicted", 0, "count");
    r.set("zserve.gen_lag_ms_p99", 0, "ms");
}

void
finishTrace(Context& ctx, int32_t root, double tracedRate,
            double untracedRate)
{
    Tracer& t = ctx.tracer;
    ctx.report.set("trace.unattributed_share", t.unattributedShare(root),
                   "share");
    ctx.report.set("trace.overhead_share",
                   untracedRate > 0 ? 1.0 - tracedRate / untracedRate : 0,
                   "share");
    std::string path = ctx.opt.workDir + "/trace-" + ctx.opt.workload +
                       "-" + std::to_string(ctx.opt.seed) + ".jsonl";
    if (!t.writeJsonl(path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::fprintf(stderr, "perfbench: %zu spans -> %s\n", t.spans().size(),
                 path.c_str());
    std::fprintf(stderr, "perfbench: self time by span\n");
    for (const auto& [name, sec] : t.selfSeconds())
        std::fprintf(stderr, "  %-28s %10.4f s\n", name.c_str(), sec);
}

} // namespace perfbench
