// Micro-benchmark of the runtime frame hot path: the per-frame cost
// of rebuilding schedule state versus reusing one warm
// ExecutionContext, for every benchmark app.
//
// Both loops simulate the same frame (all of an app's compiled
// algorithms, one Gauss-Newton step) on the same minimal OoO
// accelerator; they differ only in whether dependence graph, cost
// caches, executors and scratch vectors are rebuilt per frame
// (hw::simulate) or built once and reset in place
// (runtime::ExecutionContext). Exits non-zero if the two paths
// disagree in cycles or in the bits of the frame energy. Emits
// BENCH_runtime.json for CI trending.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "apps/benchmark_apps.hpp"
#include "bench_common.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/metrics.hpp"

using namespace orianna;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Order-sensitive digest of each frame's cycles and energy bits. */
struct FrameChecksum
{
    std::uint64_t cycles = 0;
    std::uint64_t energyBits = 0;

    void
    add(const hw::SimResult &result)
    {
        cycles += result.cycles;
        energyBits = energyBits * 1099511628211ull ^
                     std::bit_cast<std::uint64_t>(result.totalEnergyJ());
    }

    bool
    operator==(const FrameChecksum &other) const = default;
};

struct AppRun
{
    const char *app;
    std::size_t frames;
    std::size_t instructions;
    double freshFps;
    double reusedFps;
    double metricsFps;
    double reusedNsPerInstr;
};

} // namespace

int
main()
{
    // The headline numbers measure the undisturbed hot path (metrics
    // runtime-disabled, the mode a latency-critical deployment runs
    // in); the enabled-mode loop quantifies the instrumentation
    // overhead separately.
    runtime::MetricsRegistry::setEnabled(false);

    std::vector<AppRun> runs;
    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench = apps::buildApp(kind, bench::kBenchSeed);
        bench.app.compile();
        const auto work = bench.app.frameWork();
        const auto config = hw::AcceleratorConfig::minimal(true);

        // Self-calibrate the frame count to keep each path around a
        // quarter second.
        std::size_t frames = 8;
        {
            const auto start = Clock::now();
            hw::SimResult warmup = hw::simulate(work, config);
            (void)warmup;
            const double per_frame = secondsSince(start);
            if (per_frame > 0.0)
                frames = static_cast<std::size_t>(
                    std::max(8.0, 0.25 / per_frame));
        }

        // Old path: a fresh simulation context every frame.
        FrameChecksum fresh;
        const auto fresh_start = Clock::now();
        for (std::size_t i = 0; i < frames; ++i)
            fresh.add(hw::simulate(work, config));
        const double fresh_s = secondsSince(fresh_start);

        // New path: one warm context, per-frame scratch reset in place.
        runtime::ExecutionContext context(work);
        FrameChecksum reused;
        const auto reused_start = Clock::now();
        for (std::size_t i = 0; i < frames; ++i)
            reused.add(context.run(config));
        const double reused_s = secondsSince(reused_start);

        // Same warm-context loop with metrics recording on.
        runtime::MetricsRegistry::setEnabled(true);
        FrameChecksum metrics;
        const auto metrics_start = Clock::now();
        for (std::size_t i = 0; i < frames; ++i)
            metrics.add(context.run(config));
        const double metrics_s = secondsSince(metrics_start);
        runtime::MetricsRegistry::setEnabled(false);

        const char *name = apps::appName(kind);
        if (!(fresh == reused) || !(metrics == reused)) {
            std::fprintf(stderr,
                         "%s: fresh / reused / metrics-on frames diverge "
                         "(cycles %llu / %llu / %llu, energy bits "
                         "%016llx / %016llx / %016llx)\n",
                         name,
                         static_cast<unsigned long long>(fresh.cycles),
                         static_cast<unsigned long long>(reused.cycles),
                         static_cast<unsigned long long>(metrics.cycles),
                         static_cast<unsigned long long>(fresh.energyBits),
                         static_cast<unsigned long long>(reused.energyBits),
                         static_cast<unsigned long long>(
                             metrics.energyBits));
            return 1;
        }

        const auto n = static_cast<double>(frames);
        runs.push_back({name, frames, context.instructionCount(),
                        n / fresh_s, n / reused_s, n / metrics_s,
                        reused_s * 1e9 /
                            (n * static_cast<double>(
                                     context.instructionCount()))});
    }

    std::printf("%-14s %7s %6s %12s %12s %12s %8s %10s\n", "app",
                "frames", "instr", "fresh fps", "reused fps",
                "metrics fps", "speedup", "ns/instr");
    for (const AppRun &run : runs)
        std::printf("%-14s %7zu %6zu %12.1f %12.1f %12.1f %7.2fx "
                    "%10.1f\n",
                    run.app, run.frames, run.instructions, run.freshFps,
                    run.reusedFps, run.metricsFps,
                    run.reusedFps / run.freshFps, run.reusedNsPerInstr);

    std::ofstream json("BENCH_runtime.json");
    json << "{\n  \"apps\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const AppRun &run = runs[i];
        json << "    {\"app\": \"" << run.app << "\", \"frames\": "
             << run.frames << ", \"instructions\": " << run.instructions
             << ", \"fresh_context_fps\": " << run.freshFps
             << ", \"reused_context_fps\": " << run.reusedFps
             << ", \"metrics_enabled_fps\": " << run.metricsFps
             << ", \"speedup\": " << run.reusedFps / run.freshFps
             << ", \"reused_ns_per_instr\": " << run.reusedNsPerInstr
             << "}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("wrote BENCH_runtime.json\n");
    return 0;
}
