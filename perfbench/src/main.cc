/**
 * @file
 * perfbench: the repository's end-to-end benchmark program.
 *
 *   perfbench --workload tx_bits|rx_frames|serve_scrambler --seed N
 *             --seconds S --trace 0|1 --work-dir DIR
 *   perfbench --smoke --work-dir DIR [--workload W]
 *
 * With `--trace 0` the last stdout line is one JSON object carrying the
 * end-to-end metrics; with `--trace 1` it carries the per-layer metrics
 * of a separate traced run, and the spans go to DIR/trace-*.jsonl.
 * `--smoke` runs every workload at tiny sizes and only checks outputs.
 * Exit status: 0 all outputs correct, 1 any output mismatch or failed
 * session, 2 usage error.  See perfbench/README.md for the metric table.
 */
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "zcgen/cgen.h"

using namespace perfbench;

namespace {

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n"
                 "       perfbench --smoke --work-dir DIR [--workload W]\n",
                 msg);
    return 2;
}

bool
parseNum(const char* s, double lo, double hi, double* out)
{
    char* end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !(v >= lo && v <= hi))
        return false;
    *out = v;
    return true;
}

std::string
jsonStr(const std::string& s)
{
    std::string o = "\"";
    for (char c : s)
        if (c == '"' || c == '\\')
            o += std::string("\\") + c;
        else if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    return o + "\"";
}

/** Host and build fingerprint, one stdout line per run. */
void
printFingerprint(const Options& o, const std::string& cacheDir)
{
    std::printf("perfbench fingerprint {\"workload\": %s, \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
                "\"cxx\": %s, \"build_type\": %s, \"cgen_compiler\": %s, "
                "\"cgen_cache\": %s}\n",
                jsonStr(o.workload).c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, std::thread::hardware_concurrency(),
                jsonStr(PERFBENCH_CXX_ID).c_str(),
                jsonStr(PERFBENCH_BUILD_TYPE).c_str(),
                jsonStr(zcgen::compilerVersion()).c_str(),
                jsonStr(cacheDir).c_str());
}

int
runWorkload(Context& ctx)
{
    const std::string& w = ctx.opt.workload;
    if (w == "tx_bits")
        return runTxBits(ctx);
    if (w == "rx_frames")
        return runRxFrames(ctx);
    if (w == "serve_scrambler")
        return runServeScrambler(ctx);
    return -1;
}

} // namespace

int
main(int argc, char** argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        double v = 0;
        if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--workload") {
            const char* s = val();
            if (!s)
                return usage("--workload needs a value");
            o.workload = s;
        } else if (a == "--seed") {
            const char* s = val();
            if (!s || !parseNum(s, 0, 1e15, &v))
                return usage("bad --seed");
            o.seed = static_cast<uint64_t>(v);
            haveSeed = true;
        } else if (a == "--seconds") {
            const char* s = val();
            if (!s || !parseNum(s, 0.1, 3600, &v))
                return usage("bad --seconds");
            o.seconds = v;
            haveSeconds = true;
        } else if (a == "--trace") {
            const char* s = val();
            if (!s || !parseNum(s, 0, 1, &v) || (v != 0 && v != 1))
                return usage("bad --trace (0 or 1)");
            o.trace = v == 1;
            haveTrace = true;
        } else if (a == "--work-dir") {
            const char* s = val();
            if (!s)
                return usage("--work-dir needs a value");
            o.workDir = s;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (o.workDir.empty())
        return usage("--work-dir is required");
    if (!o.smoke && (o.workload.empty() || !haveSeed || !haveSeconds ||
                     !haveTrace))
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    std::error_code ec;
    std::filesystem::create_directories(o.workDir, ec);
    // Private native cache: shared by the runs made from one build tree,
    // never the user's cache; warmed before anything is timed.
    std::string cacheDir = o.workDir + "/cgen-cache";
    std::filesystem::create_directories(cacheDir, ec);
    if (!zcgen::compilerAvailable())
        std::fprintf(stderr, "perfbench: no C++ compiler for the native "
                             "backend; native series fall back\n");

    std::vector<std::string> workloads;
    if (!o.workload.empty())
        workloads.push_back(o.workload);
    else
        workloads = {"tx_bits", "rx_frames", "serve_scrambler"};

    bool allOk = true;
    for (const std::string& w : workloads) {
        Context ctx;
        ctx.opt = o;
        ctx.opt.workload = w;
        ctx.cacheDir = cacheDir;
        ctx.tracer.enabled = o.trace;
        printFingerprint(ctx.opt, cacheDir);
        std::fflush(stdout);
        int rc = 0;
        try {
            rc = runWorkload(ctx);
        } catch (const std::exception& e) {
            ctx.fail(std::string("exception: ") + e.what(), 1);
            rc = 1;
        }
        if (rc < 0)
            return usage(("unknown workload " + w).c_str());
        // Refused or timed-out operations count in `failed` (and in the
        // latency tail) but only a wrong output fails the run.
        bool ok = rc == 0 && !ctx.mismatch && ctx.attempted > 0;
        allOk = allOk && ok;
        if (o.smoke) {
            std::printf("perfbench smoke %s: %s (%llu operations checked)\n",
                        w.c_str(), ok ? "ok" : "FAILED",
                        static_cast<unsigned long long>(ctx.attempted));
            continue;
        }
        double att = static_cast<double>(std::max<uint64_t>(ctx.attempted, 1));
        double failRatio = static_cast<double>(ctx.failed) / att;
        if (o.trace)
            ctx.report.set("fail_ratio", failRatio, "ratio");
        else
            ctx.report.set("ok_ratio", 1.0 - failRatio, "ratio");
        if (!ctx.control.empty())
            std::printf("perfbench control {%s}\n", ctx.control.c_str());
        std::printf("%s\n",
                    ctx.report.json(ok, std::max<uint64_t>(ctx.attempted, 1),
                                    ctx.failed)
                        .c_str());
    }
    std::fflush(stdout);
    return allOk ? 0 : 1;
}
