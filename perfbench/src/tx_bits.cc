/**
 * @file
 * Workload `tx_bits`: the payload-only WiFi transmitter at all eight
 * rates, on vm, native and native with the paper's 2-partition split,
 * checked bit-exactly against the hand-written `sora::txDataSamples`.
 *
 * The kernels are bit-granular and cheap, so the per-element ExecNode
 * seam, the LUTs and the `|>>>|` queue dominate; Viterbi is absent.
 * An operation is one OFDM symbol.
 */
#include "bench.h"

#include <algorithm>

#include "sora/sora.h"
#include "support/rng.h"
#include "wifi/tx.h"

namespace perfbench {

namespace {

constexpr size_t kSampleBytes = 4;  // complex16
constexpr size_t kSymbolSamples = 80;

/**
 * Zero symbols appended after each packet's DATA field.  A vectorized
 * pipeline consumes and emits in chunks of several symbols, so the last
 * symbols of a packet only leave it once more input arrives; the tail
 * pushes them out.  Its output is checked like the packet's own.
 */
constexpr size_t kTailSymbols = 10;

struct RateCase
{
    wifi::Rate rate;
    int ndbps = 0;
    size_t symbols = 0;               ///< OFDM symbols of the packet
    std::vector<uint8_t> bits;        ///< DATA field + tail, 1 byte per bit
    std::vector<uint8_t> ref;         ///< reference samples as bytes
    size_t needBytes = 0;             ///< output bytes the packet must give
    std::vector<uint64_t> srcBounds;  ///< last input byte of each symbol
    std::vector<uint64_t> sinkBounds; ///< last output byte of each symbol
    CompPtr comp[3];                  ///< AST per series
    AnyPipeline pipe[3];
};

/** Seeded inputs: one payload, assembled and transmitted at each rate. */
std::vector<RateCase>
makeCases(Context& ctx)
{
    SpanScope sp(ctx.tracer, "gen.inputs");
    Rng rng(mixSeed(ctx.opt.seed, 0x7b));
    size_t len = ctx.opt.smoke ? 20 + rng.below(20) : 3000 + rng.below(1001);
    std::vector<uint8_t> payload(len);
    for (auto& b : payload)
        b = static_cast<uint8_t>(rng.next());
    std::vector<RateCase> cases;
    for (wifi::Rate r : wifi::allRates()) {
        RateCase c;
        c.rate = r;
        c.ndbps = wifi::rateInfo(r).ndbps;
        c.bits = wifi::assembleDataBits(payload, r);
        c.symbols = c.bits.size() / static_cast<size_t>(c.ndbps);
        c.needBytes = c.symbols * kSymbolSamples * kSampleBytes;
        c.bits.resize(c.bits.size() +
                      kTailSymbols * static_cast<size_t>(c.ndbps), 0);
        auto samples = sora::txDataSamples(c.bits, r);
        c.ref.resize(samples.size() * kSampleBytes);
        std::memcpy(c.ref.data(), samples.data(), c.ref.size());
        for (size_t k = 1; k <= c.symbols; ++k) {
            c.srcBounds.push_back(k * static_cast<uint64_t>(c.ndbps));
            c.sinkBounds.push_back(k * kSymbolSamples * kSampleBytes);
        }
        c.comp[0] = wifi::wifiTxDataComp(r, false);
        c.comp[1] = wifi::wifiTxDataComp(r, false);
        c.comp[2] = wifi::wifiTxDataComp(r, true);
        cases.push_back(std::move(c));
    }
    return cases;
}

/** Wall time of one run over a rate's bits; checks the output. */
double
runOnce(Context& ctx, RateCase& c, int s, LatencyWindows* lat,
        EndpointTotals* io)
{
    AnyPipeline& p = c.pipe[s];
    size_t inW = p.inWidth();
    if (inW == 0 || c.bits.size() % inW != 0) {
        ctx.fail("tx input not a whole number of elements", c.symbols);
        return 0;
    }
    BenchSource src(c.bits, inW, io != nullptr);
    BenchSink sink(p.outWidth(), c.ref.size(), io != nullptr);
    std::vector<uint64_t> tIn, tOut;
    if (lat) {
        src.stampAt(&c.srcBounds, &tIn);
        sink.stampAt(&c.sinkBounds, &tOut);
    }
    Stopwatch sw;
    p.run(src, sink);
    double sec = sw.elapsedSec();
    if (io)
        io->add(src, sink, static_cast<double>(c.bits.size()));

    SpanScope sp(ctx.tracer, "bench.check",
                 static_cast<uint64_t>(wifi::rateInfo(c.rate).mbps));
    ctx.attempted += c.symbols;
    if (sink.bytes() < c.needBytes || sink.bytes() > c.ref.size() ||
        std::memcmp(sink.data(), c.ref.data(), sink.bytes()) != 0) {
        ctx.fail(std::string("tx ") + kSeries[s].name + " " +
                     std::to_string(wifi::rateInfo(c.rate).mbps) +
                     " Mbps output differs from sora::txDataSamples (" +
                     std::to_string(sink.bytes()) + " bytes, packet " +
                     std::to_string(c.needBytes) + ")",
                 c.symbols);
        return sec;
    }
    if (lat)
        for (size_t k = 0; k < c.symbols; ++k)
            lat->add(static_cast<double>(tOut[k] - std::min(tOut[k], tIn[k])) /
                     1e3);
    return sec;
}

} // namespace

int
runTxBits(Context& ctx)
{
    Tracer& tr = ctx.tracer;
    int32_t root = tr.begin("run");
    std::vector<RateCase> cases = makeCases(ctx);
    double bitsPerPass = 0;
    for (const auto& c : cases)
        bitsPerPass += static_cast<double>(c.bits.size());

    // Set-up: the 24 pipelines, three warm passes.
    CompileTotals totals;
    double setup = timeSetUp(ctx, 3, 0, [&](double& sec, int& compiled) {
        totals = CompileTotals();
        for (auto& c : cases)
            for (int s = 0; s < 3; ++s) {
                SpanScope sp(tr, "zir.compile",
                             static_cast<uint64_t>(wifi::rateInfo(c.rate).mbps));
                CompileReport rep;
                c.pipe[s] = compileFor(c.comp[s], kSeries[s], ctx.cacheDir,
                                       &rep, &sec);
                compiled += rep.cgen.compiled;
                totals.add(rep);
            }
    });

    // Rounds: every rate on every series.  In the traced run, traced and
    // untraced rounds alternate (trace.overhead_share).
    const bool tracing = ctx.opt.trace;
    std::vector<double> rate[3], tracedRate, plainRate;
    LatencyWindows lat;
    EndpointTotals io;
    forRounds(ctx.opt.smoke ? 0 : ctx.opt.seconds, ctx.opt.smoke ? 1 : 3,
              [&](int r) {
        bool traced = tracing && r % 2 == 0;
        RoundSpan round(tr, traced, r);
        double sec[3] = {0, 0, 0};
        for (auto& c : cases)
            for (int k = 0; k < 3; ++k) {
                int s = seriesAt(r, k);
                SpanScope sp(tr, kSeries[s].span,
                             static_cast<uint64_t>(wifi::rateInfo(c.rate).mbps));
                sec[s] += runOnce(ctx, c, s,
                                  s == 1 && !tracing ? &lat : nullptr,
                                  traced ? &io : nullptr);
            }
        for (int s = 0; s < 3; ++s)
            rate[s].push_back(bitsPerPass / sec[s] / 1e6);
        (traced ? tracedRate : plainRate)
            .push_back(3 * bitsPerPass / (sec[0] + sec[1] + sec[2]) / 1e6);
    });

    Report& rep = ctx.report;
    if (!tracing) {
        rep.set("setup_s", setup, "s");
        rep.set("melem_s.vm", runRate(rate[0]), "Melem/s");
        rep.set("melem_s.native", runRate(rate[1]), "Melem/s");
        rep.set("melem_s.native_2t", runRate(rate[2]), "Melem/s");
        rep.set("latency_p50_us", lat.p50(), "us");
        rep.set("latency_p99_us", lat.p99(), "us");
        probeSora(ctx);
        tr.end(root);
        return 0;
    }

    totals.report(rep);
    io.report(rep);
    std::vector<CounterCase> counted;
    for (auto& c : cases)
        counted.push_back({c.comp[1], &c.bits,
                           static_cast<double>(c.bits.size())});
    probeNodeCounters(ctx, counted);
    {
        SpanScope sp(tr, "probe.stages");
        StageProbe probe;
        for (auto& c : cases)
            probe.run(*c.pipe[2].threaded, c.bits,
                      static_cast<double>(c.bits.size()));
        probe.report(rep);
    }
    // The wire probe frames this workload's bits as 512-bit Data frames.
    std::vector<std::vector<uint8_t>> frames;
    for (const auto& c : cases)
        for (size_t off = 0; off + 512 <= c.bits.size(); off += 512)
            frames.emplace_back(c.bits.begin() + static_cast<long>(off),
                                c.bits.begin() + static_cast<long>(off + 512));
    runCommonProbes(ctx, wifi::wifiTxDataComp(wifi::Rate::R54, false),
                    frames);
    reportNoServer(ctx);
    tr.end(root);
    finishTrace(ctx, root, runRate(tracedRate), runRate(plainRate));
    return 0;
}

} // namespace perfbench
