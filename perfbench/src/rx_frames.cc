/**
 * @file
 * Workload `rx_frames`: the full looping WiFi receiver (Listing 1) on
 * one seeded over-the-air capture, on vm, native, and native with the
 * decoded bits handed to a consumer thread across a `|>>>|` queue.
 *
 * The capture is built with `sora::txFrame` and `channel::applyChannel`:
 * packets cycle through the eight rates, payload lengths come from the
 * seed, silence gaps separate the packets, and the whole capture gets
 * 30 dB AWGN.  Every decoded PSDU is compared with its payload + FCS.
 * The FFT and Viterbi natives and the per-packet `seq` reconfiguration
 * dominate; queues carry only the decoded bits.  An operation is one
 * packet.
 */
#include "bench.h"

#include <algorithm>
#include <utility>

#include "channel/channel.h"
#include "dsp/crc.h"
#include "sora/sora.h"
#include "support/rng.h"
#include "wifi/rx.h"
#include "wifi/tx.h"
#include "zast/builder.h"
#include "zparse/parser.h"

namespace perfbench {

namespace {

constexpr size_t kSampleBytes = 4;  // complex16

struct Capture
{
    std::vector<uint8_t> samples;      ///< complex16 samples as bytes
    std::vector<uint8_t> expect;       ///< all PSDU bits, 1 byte per bit
    std::vector<uint64_t> srcBounds;   ///< last sample byte per packet
    std::vector<uint64_t> sinkBounds;  ///< last PSDU bit byte per packet
    size_t packets = 0;
    uint64_t sampleCount = 0;
};

Capture
makeCapture(Context& ctx)
{
    SpanScope sp(ctx.tracer, "gen.inputs");
    Rng rng(mixSeed(ctx.opt.seed, 0x52));
    // Every rate gets the same seeded payload lengths, so the share of
    // samples per rate -- which sets the decode cost per sample -- does
    // not change with the seed.  The lengths are drawn one per stratum
    // of 40..400 bytes (then shuffled), so their mean barely moves with
    // the seed either.  Packets cycle through the rates.
    const size_t perRate = ctx.opt.smoke ? 1 : 3;
    const auto& rates = wifi::allRates();
    std::vector<size_t> lens(perRate);
    for (size_t i = 0; i < perRate; ++i)
        lens[i] = ctx.opt.smoke ? 20 + rng.below(40)
                                : 40 + (360 * i + rng.below(360)) / perRate;
    for (size_t i = perRate; i > 1; --i)
        std::swap(lens[i - 1], lens[rng.below(i)]);
    size_t first = static_cast<size_t>(rng.below(rates.size()));
    std::vector<Complex16> air;
    Capture cap;
    cap.packets = perRate * rates.size();
    for (size_t k = 0; k < cap.packets; ++k) {
        wifi::Rate rate = rates[(first + k) % rates.size()];
        size_t len = lens[k / rates.size()];
        std::vector<uint8_t> payload(len);
        for (auto& b : payload)
            b = static_cast<uint8_t>(rng.next());
        air.insert(air.end(), 200 + rng.below(600), Complex16{0, 0});
        auto tx = sora::txFrame(payload, rate);
        air.insert(air.end(), tx.begin(), tx.end());
        cap.srcBounds.push_back(air.size() * kSampleBytes);

        // Reference PSDU: payload bits then the 32 FCS bits.
        std::vector<uint8_t> bits = wifi::bytesToBits(payload);
        dsp::Crc32 crc;
        for (uint8_t b : bits)
            crc.inputBit(b);
        std::vector<uint8_t> fcs = crc.fcsBits();
        cap.expect.insert(cap.expect.end(), bits.begin(), bits.end());
        cap.expect.insert(cap.expect.end(), fcs.begin(), fcs.end());
        cap.sinkBounds.push_back(cap.expect.size());
    }
    air.insert(air.end(), 600, Complex16{0, 0});

    channel::ChannelConfig cfg;
    cfg.snrDb = 30.0;
    cfg.seed = mixSeed(ctx.opt.seed, 0xc4);
    std::vector<Complex16> rx = channel::applyChannel(air, cfg);
    cap.sampleCount = rx.size();
    cap.samples.resize(rx.size() * kSampleBytes);
    std::memcpy(cap.samples.data(), rx.data(), cap.samples.size());
    return cap;
}

/** The three series' programs. */
CompPtr
programFor(int s)
{
    if (s < 2)
        return wifi::wifiReceiverLoopComp();
    return zb::ppipe(wifi::wifiReceiverLoopComp(),
                     parseComp("repeat { seq { (x : bit) <- take : bit ; "
                               "emit x } }"));
}

/** Packets whose PSDU bits came out wrong (0 when all match). */
size_t
badPackets(const Capture& cap, const BenchSink& sink)
{
    if (sink.matches(cap.expect.data(), cap.expect.size()))
        return 0;
    size_t bad = 0, begin = 0;
    for (size_t k = 0; k < cap.packets; ++k) {
        size_t end = cap.sinkBounds[k];
        if (end > sink.bytes() ||
            std::memcmp(sink.data() + begin, cap.expect.data() + begin,
                        end - begin) != 0)
            ++bad;
        begin = end;
    }
    return std::max<size_t>(bad, 1);
}

/** Wall time of one run over the capture; checks every packet. */
double
runOnce(Context& ctx, const Capture& cap, AnyPipeline& p, int s,
        LatencyWindows* lat, EndpointTotals* io)
{
    BenchSource src(cap.samples, p.inWidth(), io != nullptr);
    BenchSink sink(p.outWidth(), cap.expect.size(), io != nullptr);
    std::vector<uint64_t> tIn, tOut;
    if (lat) {
        src.stampAt(&cap.srcBounds, &tIn);
        sink.stampAt(&cap.sinkBounds, &tOut);
    }
    Stopwatch sw;
    p.run(src, sink);
    double sec = sw.elapsedSec();
    if (io)
        io->add(src, sink, static_cast<double>(cap.sampleCount));

    SpanScope sp(ctx.tracer, "bench.check");
    ctx.attempted += cap.packets;
    if (size_t bad = badPackets(cap, sink)) {
        ctx.fail(std::string("rx ") + kSeries[s].name + ": " +
                     std::to_string(bad) + " of " +
                     std::to_string(cap.packets) +
                     " packets decoded wrong",
                 bad);
        return sec;
    }
    if (lat)
        for (size_t k = 0; k < cap.packets; ++k)
            lat->add(static_cast<double>(tOut[k] - std::min(tOut[k], tIn[k])) /
                     1e3);
    return sec;
}

} // namespace

int
runRxFrames(Context& ctx)
{
    Tracer& tr = ctx.tracer;
    int32_t root = tr.begin("run");
    Capture cap = makeCapture(ctx);
    CompPtr comp[3] = {programFor(0), programFor(1), programFor(2)};

    // Set-up: the 3 receiver pipelines compile in milliseconds, so a
    // burst of passes would sample the host for a moment only.  After
    // three warm passes, every round starts with one more timed pass
    // whose pipelines it then runs; setup_s is the median of them all.
    AnyPipeline pipe[3];
    CompileTotals totals;
    auto compileAll = [&](double& sec, int& compiled) {
        totals = CompileTotals();
        for (int s = 0; s < 3; ++s) {
            SpanScope sp(tr, "zir.compile", static_cast<uint64_t>(s));
            CompileReport rep;
            pipe[s] = compileFor(comp[s], kSeries[s], ctx.cacheDir, &rep,
                                 &sec);
            compiled += rep.cgen.compiled;
            totals.add(rep);
        }
    };
    std::vector<double> setup = {timeSetUp(ctx, 3, 0, compileAll)};

    const bool tracing = ctx.opt.trace;
    const double samples = static_cast<double>(cap.sampleCount);
    std::vector<double> rate[3], tracedRate, plainRate;
    LatencyWindows lat;
    EndpointTotals io;
    forRounds(ctx.opt.smoke ? 0 : ctx.opt.seconds, ctx.opt.smoke ? 1 : 3,
              [&](int r) {
        bool traced = tracing && r % 2 == 0;
        RoundSpan round(tr, traced, r);
        double setupSec = 0;
        int compiled = 0;
        compileAll(setupSec, compiled);
        if (compiled == 0)
            setup.push_back(setupSec);
        double total = 0;
        for (int k = 0; k < 3; ++k) {
            int s = seriesAt(r, k);
            SpanScope sp(tr, kSeries[s].span, static_cast<uint64_t>(r));
            double sec = runOnce(ctx, cap, pipe[s], s,
                                 s == 1 && !tracing ? &lat : nullptr,
                                 traced ? &io : nullptr);
            rate[s].push_back(samples / sec / 1e6);
            total += sec;
        }
        (traced ? tracedRate : plainRate).push_back(3 * samples / total / 1e6);
    });

    Report& rep = ctx.report;
    if (!tracing) {
        rep.set("setup_s", median(setup), "s");
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
    probeNodeCounters(ctx, {{comp[1], &cap.samples, samples}});
    {
        SpanScope sp(tr, "probe.stages");
        StageProbe probe;
        probe.run(*pipe[2].threaded, cap.samples, samples);
        probe.report(rep);
    }
    // The wire probe frames the capture as 512-sample Data frames.
    std::vector<std::vector<uint8_t>> frames;
    for (size_t off = 0;
         off + 2048 <= cap.samples.size() && frames.size() < 256; off += 2048)
        frames.emplace_back(cap.samples.begin() + static_cast<long>(off),
                            cap.samples.begin() + static_cast<long>(off + 2048));
    runCommonProbes(ctx, wifi::wifiReceiverLoopComp(), frames);
    reportNoServer(ctx);
    tr.end(root);
    finishTrace(ctx, root, runRate(tracedRate), runRate(plainRate));
    return 0;
}

} // namespace perfbench
