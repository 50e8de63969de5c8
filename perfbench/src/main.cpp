// Layered benchmark of the ORIANNA serving and incremental-SLAM paths.
//
//   orianna_perfbench --workload serve-warm|serve-cold|slam-garage
//                     --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Prints a header (SIMD tier, nproc, compiler, build type, precision),
// the raw-sample distributions behind each metric, and as its last
// line one JSON object {"correct","attempted","failed","metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// request sequence once untraced and once as spanned direct calls into
// each layer, and reports the per-layer metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "matrix/simd.hpp"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload serve-warm|serve-cold|slam-garage "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunArgs args;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (!(args.seconds > 0 && args.seconds <= 600))
                return usage(argv[0]);
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
                return usage(argv[0]);
            args.trace = value[0] == '1';
            have_trace = true;
        } else if (flag == "--spans") {
            args.spansPath = value;
        } else {
            return usage(argv[0]);
        }
        if (end != nullptr && *end != '\0')
            return usage(argv[0]);
    }
    if (args.workload.empty() || !have_trace)
        return usage(argv[0]);

    std::printf("simd: %s\n",
                orianna::mat::kernels::simdCapabilityString().c_str());
    std::printf("nproc: %u\n", std::thread::hardware_concurrency());
    std::printf("compiler: %s\n", PERFBENCH_COMPILER);
    std::printf("build type: %s\n", PERFBENCH_BUILD_TYPE);
    std::printf("precision: fp64 (pinned)\n");
    std::printf("workload: %s seed %llu, %.3g s, trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);

    perfbench::Report report;
    try {
        if (args.workload == "serve-warm")
            report = perfbench::runServeWarm(args);
        else if (args.workload == "serve-cold")
            report = perfbench::runServeCold(args);
        else if (args.workload == "slam-garage")
            report = perfbench::runSlamGarage(args);
        else
            return usage(argv[0]);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    for (const std::string &line : report.notes)
        std::printf("%s\n", line.c_str());
    std::printf("%s\n", report.resultLine().c_str());
    std::fflush(stdout);
    return report.correct ? 0 : 1;
}
