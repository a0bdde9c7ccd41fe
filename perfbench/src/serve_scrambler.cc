/**
 * @file
 * Workload `serve_scrambler`: the paper's Figure 3 scrambler served by
 * an in-process zserve server (2 workers plus its I/O thread) to 4
 * loopback sessions driven by one generator thread over the wire
 * protocol.
 *
 * Two phases share the run:
 *  - closed loop, saturated: each session keeps a fixed window of Data
 *    frames in flight; windows rotate over three servers: vm sessions
 *    on 2 workers, native sessions on 1 worker, native sessions on 2
 *    workers;
 *  - open loop, paced: frames are due on a fixed schedule at a fixed
 *    offered rate (about 30% of saturation on a 4-thread host); a
 *    frame's latency runs from its due time to the arrival of its last
 *    output element, so a stall also charges the frames queued behind.
 * Outputs are checked against a scalar scrambler written here.  An
 * operation is one Data frame.
 */
#include "bench.h"

#include <poll.h>

#include <algorithm>
#include <deque>
#include <type_traits>

#include "support/rng.h"
#include "zparse/parser.h"
#include "zserve/server.h"
#include "zserve/socket.h"
#include "zserve/wire.h"

namespace perfbench {

namespace {

constexpr const char* kScramblerDef = R"(
let comp scrambler() =
    var scrmbl_st : arr[7] bit := {'1,'1,'1,'1,'1,'1,'1} in
    repeat {
        seq { (x : bit) <- take : bit
            ; (tmp : bit) <- return (scrmbl_st[3] ^ scrmbl_st[0])
            ; do { scrmbl_st[0, 6] := scrmbl_st[1, 6];
                   scrmbl_st[6] := tmp; }
            ; emit (x ^ tmp)
            }
    }

let comp pass() = repeat { seq { (x : bit) <- take : bit ; emit x } }
)";

constexpr int kSessions = 4;
constexpr size_t kFrameBits = 1024;      ///< elements per Data frame
/** Closed-loop frames in flight per session: half the session's input
 *  queue, so the window measures stepping, not backpressure stalls. */
constexpr size_t kWindowFrames = 4;
/** Open-loop offered rate over all sessions: about 30% of the closed
 *  loop's saturation on a 4-thread host (~20-25 Mbit/s).  Paced frames
 *  each wake a parked session, so the open loop saturates well below
 *  the closed loop: at 10 Mbit/s a slow spell of the shared host built
 *  backlogs of tens of milliseconds, and at 4 Mbit/s the p99 swung with
 *  how fast idle workers woke. */
constexpr double kOfferedBitsPerSec = 7e6;
constexpr size_t kMaxBacklogFrames = 256;     ///< refuse to queue beyond
/** Latency charged to a refused or unanswered frame: over any limit,
 *  but finite so that percentiles stay numbers. */
constexpr double kFailedLatencyUs = 10e6;
constexpr size_t kPoolBits = 1 << 18;
constexpr uint64_t kPollNs = 5000000;   ///< idle wait for output

/** The scrambler of Figure 3, one bit at a time. */
struct RefScrambler
{
    uint8_t st[7] = {1, 1, 1, 1, 1, 1, 1};

    uint8_t
    next(uint8_t x)
    {
        uint8_t tmp = st[3] ^ st[0];
        std::memmove(st, st + 1, 6);
        st[6] = tmp;
        return x ^ tmp;
    }
};

/** Reads one 64-bit value following "key": in a JSON document. */
double
jsonNumber(const std::string& doc, const std::string& key)
{
    size_t at = doc.find("\"" + key + "\":");
    if (at == std::string::npos)
        return 0;
    return std::strtod(doc.c_str() + at + key.size() + 3, nullptr);
}

/** Totals the generator keeps across sessions (per-layer metrics). */
struct ClientTotals
{
    uint64_t sendNs = 0, waitNs = 0;
    uint64_t framesSent = 0, framesRecv = 0;
    double runningNs = 0, queuedNs = 0, parkedNs = 0;
    std::vector<double> lagMs;
    std::vector<std::vector<uint8_t>> captured;  ///< sample Data payloads
};

/** One loopback session as seen by the generator. */
struct Client
{
    serve::SockFd sock;
    serve::FrameParser parser;
    RefScrambler ref;
    size_t poolOff = 0;
    uint64_t sentBits = 0, recvBits = 0;
    uint64_t framesDone = 0;       ///< frames whose output fully arrived
    std::deque<uint64_t> dueNs;    ///< per in-flight frame
    bool ended = false, failed = false;
    std::string stat;
};

class Generator
{
  public:
    Generator(Context& ctx, const std::vector<uint8_t>& pool,
              ClientTotals& tot)
        : ctx_(ctx), pool_(pool), tot_(tot)
    {
    }

    /** Connect @p n sessions and wait for every Hello. */
    bool
    open(uint16_t port, int n, uint64_t seedSalt)
    {
        clients_.clear();
        clients_.resize(static_cast<size_t>(n));
        Rng rng(mixSeed(ctx_.opt.seed, seedSalt));
        for (auto& c : clients_) {
            c.sock = serve::connectTcp("127.0.0.1", port);
            serve::setNoDelay(c.sock.get());
            serve::setNonBlocking(c.sock.get());
            c.poolOff = static_cast<size_t>(rng.below(pool_.size()));
            serve::Frame f;
            if (!readFrame(c, f, 5000) || f.type != serve::FrameType::Hello)
                return false;
            serve::HelloInfo hi;
            if (!serve::decodeHello(f.payload, hi) ||
                kFrameBits % std::max<uint32_t>(hi.inWidth, 1) != 0)
                return false;
        }
        return true;
    }

    /**
     * Closed loop for @p seconds: keep kWindowFrames in flight per
     * session.  Returns output bits received per second.
     */
    double
    closedLoop(double seconds)
    {
        uint64_t t0 = nowNs();
        for (auto& c : clients_)
            for (size_t k = 0; k < kWindowFrames; ++k)
                sendFrame(c, t0);
        uint64_t bits0 = recvBits();
        uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
        while (nowNs() < end && !anyFailed())
            pump(kPollNs, [&](Client& c) {
                if (nowNs() < end)
                    sendFrame(c, nowNs());
            }, nullptr);
        double sec = static_cast<double>(nowNs() - t0) * 1e-9;
        return static_cast<double>(recvBits() - bits0) / sec;
    }

    /**
     * Open loop for @p seconds at kOfferedBitsPerSec over all sessions;
     * adds per-frame latencies (us) to @p lat.
     */
    void
    openLoop(double seconds, LatencyWindows& lat)
    {
        const double period = static_cast<double>(kFrameBits) *
                              static_cast<double>(clients_.size()) /
                              kOfferedBitsPerSec * 1e9;
        const size_t n = clients_.size();
        uint64_t t0 = nowNs() + 1000000;
        uint64_t end = t0 + static_cast<uint64_t>(seconds * 1e9);
        std::vector<uint64_t> nextK(n, 0);
        auto dueOf = [&](size_t s, uint64_t k) {
            return t0 + static_cast<uint64_t>(
                            (static_cast<double>(k) +
                             static_cast<double>(s) / static_cast<double>(n)) *
                            period);
        };
        for (;;) {
            uint64_t now = nowNs();
            uint64_t next = UINT64_MAX;
            for (size_t s = 0; s < n; ++s) {
                Client& c = clients_[s];
                for (uint64_t due = dueOf(s, nextK[s]); due <= now && due < end;
                     due = dueOf(s, ++nextK[s])) {
                    if (c.failed || c.dueNs.size() >= kMaxBacklogFrames) {
                        ++ctx_.attempted;
                        ++ctx_.failed;
                        lat.add(kFailedLatencyUs);
                        continue;
                    }
                    tot_.lagMs.push_back(static_cast<double>(now - due) / 1e6);
                    sendFrame(c, due);
                }
                uint64_t due = dueOf(s, nextK[s]);
                if (due < end)
                    next = std::min(next, due);
            }
            if (next == UINT64_MAX)
                break;
            now = nowNs();
            pump(next > now ? next - now : 0, nullptr, &lat);
        }
        // Let the last frames arrive (bounded); the rest fail in close().
        uint64_t drainEnd = nowNs() + 2000000000ull;
        while (nowNs() < drainEnd && inFlight() > 0 && !anyFailed())
            pump(kPollNs, nullptr, &lat);
    }

    /** Stat + End on every session, drain to the server's End. */
    void
    close(LatencyWindows* lat)
    {
        std::vector<uint8_t> wire;
        for (auto& c : clients_) {
            wire.clear();
            serve::encodeFrame(wire, serve::FrameType::Stat);
            serve::encodeFrame(wire, serve::FrameType::End);
            if (!c.failed && !serve::sendAll(c.sock.get(), wire.data(),
                                             wire.size()))
                c.failed = true;
        }
        uint64_t deadline = nowNs() + 5000000000ull;
        auto open = [&] {
            for (auto& c : clients_)
                if (!c.ended && !c.failed)
                    return true;
            return false;
        };
        while (open() && nowNs() < deadline)
            pump(kPollNs, nullptr, lat);
        for (auto& c : clients_) {
            // Frames that never completed are failed operations.
            for (size_t k = 0; k < c.dueNs.size(); ++k) {
                ++ctx_.failed;
                if (lat)
                    lat->add(kFailedLatencyUs);
            }
            if (!c.ended || c.failed)
                ctx_.fail("serve session did not end cleanly", 0);
            tot_.runningNs += jsonNumber(c.stat, "sched_running_ns");
            tot_.queuedNs += jsonNumber(c.stat, "sched_queued_ns");
            tot_.parkedNs += jsonNumber(c.stat, "sched_parked_ns");
        }
        clients_.clear();
    }

  private:
    bool
    anyFailed() const
    {
        for (const auto& c : clients_)
            if (c.failed)
                return true;
        return false;
    }

    size_t
    inFlight() const
    {
        size_t n = 0;
        for (const auto& c : clients_)
            n += c.dueNs.size();
        return n;
    }

    uint64_t
    recvBits() const
    {
        uint64_t n = 0;
        for (const auto& c : clients_)
            n += c.recvBits;
        return n;
    }

    void
    sendFrame(Client& c, uint64_t due)
    {
        if (c.failed)
            return;
        SpanScope sp(ctx_.tracer, "zserve.client.send", tot_.framesSent);
        payload_.resize(kFrameBits);
        for (size_t i = 0; i < kFrameBits; ++i)
            payload_[i] = pool_[(c.poolOff + c.sentBits + i) % pool_.size()];
        wire_.clear();
        serve::encodeFrame(wire_, serve::FrameType::Data, payload_);
        if (tot_.captured.size() < 256)
            tot_.captured.push_back(payload_);
        uint64_t t = nowNs();
        if (!serve::sendAll(c.sock.get(), wire_.data(), wire_.size())) {
            c.failed = true;
            return;
        }
        tot_.sendNs += nowNs() - t;
        c.sentBits += kFrameBits;
        c.dueNs.push_back(due);
        ++tot_.framesSent;
        ++ctx_.attempted;
    }

    /** Blocking read of one frame (set-up only), bounded by @p ms. */
    bool
    readFrame(Client& c, serve::Frame& f, int ms)
    {
        uint64_t end = nowNs() + static_cast<uint64_t>(ms) * 1000000;
        uint8_t buf[4096];
        while (nowNs() < end) {
            serve::FrameParser::Result r = c.parser.next(f);
            if (r == serve::FrameParser::Result::Frame)
                return true;
            if (r == serve::FrameParser::Result::Error)
                return false;
            pollfd p{c.sock.get(), POLLIN, 0};
            ::poll(&p, 1, 50);
            long n = serve::recvSome(c.sock.get(), buf, sizeof buf);
            if (n > 0)
                c.parser.feed(buf, static_cast<size_t>(n));
            else if (n == 0 || n == -2)
                return false;
        }
        return false;
    }

    /**
     * Wait up to @p waitNs for output, then consume everything readable.
     * @p onFrame runs per completed frame (closed loop: send the next);
     * completed-frame latencies go to @p lat when given.
     */
    template <typename OnFrame>
    void
    pump(uint64_t waitNs, OnFrame onFrame, LatencyWindows* lat)
    {
        std::vector<pollfd> fds;
        for (auto& c : clients_)
            fds.push_back({c.sock.get(), POLLIN, 0});
        {
            SpanScope sp(ctx_.tracer, "zserve.client.wait");
            uint64_t t = nowNs();
            timespec ts{static_cast<time_t>(waitNs / 1000000000),
                        static_cast<long>(waitNs % 1000000000)};
            ::ppoll(fds.data(), fds.size(), &ts, nullptr);
            tot_.waitNs += nowNs() - t;
        }
        SpanScope sp(ctx_.tracer, "zserve.client.recv");
        for (size_t i = 0; i < clients_.size(); ++i)
            if (fds[i].revents)
                drain(clients_[i], onFrame, lat);
    }

    template <typename OnFrame>
    void
    drain(Client& c, OnFrame& onFrame, LatencyWindows* lat)
    {
        uint8_t buf[64 * 1024];
        bool closed = false;
        for (;;) {
            long n = serve::recvSome(c.sock.get(), buf, sizeof buf);
            if (n > 0) {
                c.parser.feed(buf, static_cast<size_t>(n));
                continue;
            }
            closed = n != -1;
            break;
        }
        parse(c, onFrame, lat);
        // The server closes right after its End; anything else is a drop.
        if (closed && !c.ended)
            c.failed = true;
    }

    template <typename OnFrame>
    void
    parse(Client& c, OnFrame& onFrame, LatencyWindows* lat)
    {
        serve::Frame f;
        for (;;) {
            serve::FrameParser::Result r = c.parser.next(f);
            if (r == serve::FrameParser::Result::NeedMore)
                break;
            if (r == serve::FrameParser::Result::Error) {
                c.failed = true;
                break;
            }
            switch (f.type) {
              case serve::FrameType::Data:
                ++tot_.framesRecv;
                if (!verify(c, f.payload))
                    return;
                while (!c.dueNs.empty() &&
                       c.recvBits >= (c.framesDone + 1) * kFrameBits) {
                    uint64_t now = nowNs();
                    if (lat)
                        lat->add(static_cast<double>(
                                     now - std::min(now, c.dueNs.front())) /
                                 1e3);
                    c.dueNs.pop_front();
                    ++c.framesDone;
                    if constexpr (!std::is_same_v<OnFrame, std::nullptr_t>)
                        onFrame(c);
                }
                break;
              case serve::FrameType::Stat:
                c.stat.assign(f.payload.begin(), f.payload.end());
                break;
              case serve::FrameType::End:
                c.ended = true;
                break;
              default:
                c.failed = true;
                ctx_.fail("serve session got a " +
                              std::string(serve::frameTypeName(f.type)) +
                              " frame",
                          0);
                return;
            }
        }
    }

    bool
    verify(Client& c, const std::vector<uint8_t>& out)
    {
        for (uint8_t bit : out) {
            uint8_t x = pool_[(c.poolOff + c.recvBits) % pool_.size()];
            if (c.recvBits >= c.sentBits || bit != c.ref.next(x)) {
                c.failed = true;
                ctx_.fail("serve output differs from the reference "
                          "scrambler at bit " + std::to_string(c.recvBits),
                          0);
                return false;
            }
            ++c.recvBits;
        }
        return true;
    }

    Context& ctx_;
    const std::vector<uint8_t>& pool_;
    ClientTotals& tot_;
    std::vector<Client> clients_;
    std::vector<uint8_t> payload_, wire_;
};

serve::ServerConfig
serverConfig(int workers)
{
    serve::ServerConfig cfg;
    cfg.port = 0;
    cfg.workers = workers;
    cfg.maxSessions = 16;
    return cfg;
}

serve::Server::PipelineFactory
factoryFor(const CompPtr& program, Backend b, const std::string& cacheDir)
{
    CompilerOptions o = optionsFor(b, cacheDir);
    return [program, o](uint64_t) { return compilePipeline(program, o); };
}

/** Server start to the first Hello on a fresh connection. */
double
startToHello(const serve::Server::PipelineFactory& factory)
{
    Stopwatch sw;
    serve::Server server(factory, serverConfig(2));
    server.start();
    serve::SockFd s = serve::connectTcp("127.0.0.1", server.port());
    serve::FrameParser parser;
    serve::Frame f;
    uint8_t buf[256];
    bool ok = false;
    while (!ok) {
        long n = serve::recvSome(s.get(), buf, sizeof buf);
        if (n <= 0)
            break;
        parser.feed(buf, static_cast<size_t>(n));
        ok = parser.next(f) == serve::FrameParser::Result::Frame &&
             f.type == serve::FrameType::Hello;
    }
    double sec = sw.elapsedSec();
    s.reset();
    server.stop();
    return ok ? sec : -1;
}

} // namespace

int
runServeScrambler(Context& ctx)
{
    Tracer& tr = ctx.tracer;
    int32_t root = tr.begin("run");
    std::vector<uint8_t> pool(ctx.opt.smoke ? 4096 : kPoolBits);
    {
        SpanScope sp(tr, "gen.inputs");
        Rng rng(mixSeed(ctx.opt.seed, 0x5e));
        for (auto& b : pool)
            b = rng.bit();
    }
    CompPtr program = parseComp(std::string(kScramblerDef) + "\nscrambler()");
    CompPtr program2t =
        parseComp(std::string(kScramblerDef) + "\nscrambler() |>>>| pass()");

    // Set-up: compile reports for the per-layer totals (this also warms
    // the native cache), then server start -> first Hello, vm + native,
    // repeated; the median is setup_s.
    CompileTotals totals;
    {
        SpanScope sp(tr, "zir.compile");
        CompileReport r0, r1, r2;
        compileFor(program, kSeries[0], ctx.cacheDir, &r0, nullptr);
        compileFor(program, kSeries[1], ctx.cacheDir, &r1, nullptr);
        compileFor(program2t, kSeries[2], ctx.cacheDir, &r2, nullptr);
        for (const auto* r : {&r0, &r1, &r2})
            totals.add(*r);
    }
    auto vmFactory = factoryFor(program, Backend::Vm, ctx.cacheDir);
    auto nativeFactory = factoryFor(program, Backend::Native, ctx.cacheDir);
    std::vector<double> setup;
    {
        SpanScope sp(tr, "zserve.setup");
        Stopwatch sw;
        while (setup.size() < 5 ||
               (sw.elapsedSec() < 1.0 && setup.size() < 25)) {
            double a = startToHello(vmFactory);
            double b = startToHello(nativeFactory);
            if (a < 0 || b < 0) {
                ctx.fail("server set-up did not greet", 1);
                break;
            }
            setup.push_back(a + b);
        }
    }
    // The closed-loop series: vm sessions on 2 workers (the serving
    // configuration the latency phase uses), native sessions on 1
    // worker and on 2.
    serve::Server vmServer(vmFactory, serverConfig(2));
    serve::Server native1Server(nativeFactory, serverConfig(1));
    serve::Server native2Server(nativeFactory, serverConfig(2));
    serve::Server* servers[3] = {&vmServer, &native1Server, &native2Server};
    for (serve::Server* sv : servers)
        sv->start();

    ClientTotals tot;
    Generator gen(ctx, pool, tot);
    const bool tracing = ctx.opt.trace;
    const double satSeconds = ctx.opt.smoke ? 0 : ctx.opt.seconds * 0.5;
    const double window = ctx.opt.smoke ? 0.05 : 0.4;
    std::vector<double> rate[3], tracedRate, plainRate;
    forRounds(satSeconds, 1, [&](int r) {
        bool traced = tracing && r % 2 == 0;
        RoundSpan round(tr, traced, r);
        for (int k = 0; k < 3; ++k) {
            int s = seriesAt(r, k);
            SpanScope sp(tr, kSeries[s].span, static_cast<uint64_t>(r));
            if (!gen.open(servers[s]->port(), kSessions,
                          0x100 + static_cast<uint64_t>(r * 3 + s))) {
                ctx.fail("serve sessions did not open", 1);
                return;
            }
            double bps = gen.closedLoop(window);
            gen.close(nullptr);
            rate[s].push_back(bps / 1e6);
            if (s == 0)
                (traced ? tracedRate : plainRate).push_back(bps / 1e6);
        }
    });

    // Open loop, paced, on the vm server.
    LatencyWindows lat;
    {
        SpanScope sp(tr, "zserve.open_loop");
        if (gen.open(vmServer.port(), kSessions, 0x77)) {
            gen.openLoop(ctx.opt.smoke ? 0.2 : ctx.opt.seconds * 0.5, lat);
            gen.close(&lat);
        } else {
            ctx.fail("serve sessions did not open", 1);
        }
    }
    uint64_t rejected = 0, evicted = 0;
    for (serve::Server* sv : servers) {
        sv->stop();
        rejected += sv->counters().rejected;
        evicted += sv->counters().evicted;
    }

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

    // Without a server: the endpoints and the `|>>>|` stages on the
    // same bits, through `scrambler |>>>| pass` (output = scrambled pool).
    totals.report(rep);
    AnyPipeline bare = compileFor(program2t, kSeries[2], ctx.cacheDir,
                                  nullptr, nullptr);
    {
        SpanScope sp(tr, "probe.endpoints");
        std::vector<uint8_t> ref(pool.size());
        RefScrambler scr;
        for (size_t i = 0; i < pool.size(); ++i)
            ref[i] = scr.next(pool[i]);
        BenchSource src(pool, bare.inWidth(), true);
        BenchSink sink(bare.outWidth(), pool.size(), true);
        bare.run(src, sink);
        if (!sink.matches(ref.data(), ref.size()))
            ctx.fail("scrambler |>>>| pass output differs from the "
                     "reference scrambler", 1);
        EndpointTotals io;
        io.add(src, sink, static_cast<double>(pool.size()));
        io.report(rep);
    }
    probeNodeCounters(ctx, {{program, &pool, static_cast<double>(pool.size())}});
    {
        SpanScope sp(tr, "probe.stages");
        StageProbe probe;
        probe.run(*bare.threaded, pool, static_cast<double>(pool.size()));
        probe.report(rep);
    }
    runCommonProbes(ctx, program, tot.captured);
    rep.set("zserve.sched_running_s", tot.runningNs * 1e-9, "s");
    rep.set("zserve.sched_queued_s", tot.queuedNs * 1e-9, "s");
    rep.set("zserve.sched_parked_s", tot.parkedNs * 1e-9, "s");
    rep.set("zserve.client_send_s", static_cast<double>(tot.sendNs) * 1e-9,
            "s");
    rep.set("zserve.client_recv_wait_s",
            static_cast<double>(tot.waitNs) * 1e-9, "s");
    rep.set("zserve.out_frames_per_in_frame",
            tot.framesSent ? static_cast<double>(tot.framesRecv) /
                                 static_cast<double>(tot.framesSent)
                           : 0,
            "ratio");
    rep.set("zserve.rejected", static_cast<double>(rejected), "count");
    rep.set("zserve.evicted", static_cast<double>(evicted), "count");
    rep.set("zserve.gen_lag_ms_p99", percentile(tot.lagMs, 0.99), "ms");
    tr.end(root);
    finishTrace(ctx, root, runRate(tracedRate), runRate(plainRate));
    return 0;
}

} // namespace perfbench
