// The slam-garage workload: one robot streams the garage scenario
// frame by frame into a runtime::AcceleratedSmoother with the library
// defaults, waiting for each estimate before sending the next frame.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "apps/pose_graph.hpp"
#include "bench.hpp"
#include "fg/optimizer.hpp"
#include "runtime/incremental.hpp"

namespace perfbench {

namespace {

using namespace orianna;

bool
bitIdentical(const fg::Values &a, const fg::Values &b)
{
    auto same = [](const mat::Vector &x, const mat::Vector &y) {
        if (x.size() != y.size())
            return false;
        for (std::size_t i = 0; i < x.size(); ++i) {
            const double xi = x[i], yi = y[i];
            if (std::memcmp(&xi, &yi, sizeof(double)) != 0)
                return false;
        }
        return true;
    };
    if (a.keys() != b.keys())
        return false;
    for (fg::Key key : a.keys()) {
        if (a.isPose(key) != b.isPose(key))
            return false;
        if (a.isPose(key)
                ? !same(a.pose(key).phi(), b.pose(key).phi()) ||
                      !same(a.pose(key).t(), b.pose(key).t())
                : !same(a.vector(key), b.vector(key)))
            return false;
    }
    return true;
}

/** What one pass over one scenario saw. */
struct Pass
{
    std::vector<double> frameMs;
    /**
     * Frames that opened a session for a never-seen update shape (a
     * compile or cache fetch plus session set-up): the smoother's
     * counterpart of a protocol submit.
     */
    std::vector<double> openingMs;
    std::uint64_t deviceFrames = 0;
    std::uint64_t deviceCycles = 0;
    std::uint64_t failed = 0;
    fg::Values estimate;
};

/**
 * One untraced pass on a fresh engine: per frame, addVariable +
 * addFactor for the frame's measurements, update(), estimate().
 */
Pass
runPass(const apps::PoseGraphScenario &scenario)
{
    Pass out;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           pinnedEngineOptions());
    runtime::AcceleratedSmoother smoother(engine);
    for (const apps::PoseGraphFrame &frame : scenario.frames) {
        const runtime::AcceleratedSmootherStats before = smoother.stats();
        const std::int64_t t0 = nowNs();
        try {
            smoother.addVariable(frame.key,
                                 scenario.initial.pose(frame.key));
            for (const fg::FactorPtr &factor : frame.factors)
                smoother.addFactor(factor);
            smoother.update();
            out.estimate = smoother.estimate();
        } catch (const std::exception &) {
            ++out.failed;
        }
        out.frameMs.push_back((nowNs() - t0) / 1e6);
        const runtime::AcceleratedSmootherStats &after = smoother.stats();
        if (after.sessionsOpened != before.sessionsOpened)
            out.openingMs.push_back(out.frameMs.back());
        if (after.acceleratedFrames + after.batchFrames !=
            before.acceleratedFrames + before.batchFrames) {
            ++out.deviceFrames;
            out.deviceCycles += after.lastCycles;
        }
    }
    return out;
}

/**
 * Times the suffix solves of a traced pass: installed on the smoother
 * with setSuffixSolver, it opens a span, delegates to the
 * AcceleratedSmoother's solve(), then names the span by the rung the
 * solve took.
 */
class TimedSolver final : public fg::SuffixSolver
{
  public:
    TimedSolver(runtime::AcceleratedSmoother &inner, Tracer &tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    std::uint64_t request = 0;

    fg::SuffixSolution
    solve(const fg::SuffixSchedule &schedule,
          const std::vector<const fg::LinearRow *> &rows) override
    {
        const runtime::AcceleratedSmootherStats before = inner_.stats();
        Scoped span(&tracer_, "fg.suffix_solve", request);
        fg::SuffixSolution solution = inner_.solve(schedule, rows);
        const runtime::AcceleratedSmootherStats &after = inner_.stats();
        tracer_.rename(span.index(),
                       after.cpuFrames != before.cpuFrames
                           ? "fg.suffix_solve.cpu"
                       : after.batchFrames != before.batchFrames
                           ? "fg.suffix_solve.batch"
                           : "fg.suffix_solve.accel");
        return solution;
    }

  private:
    runtime::AcceleratedSmoother &inner_;
    Tracer &tracer_;
};

/** Counters of the traced passes, summed over passes. */
struct TracedSlam
{
    Tracer tracer;
    std::vector<double> frameMs;
    std::uint64_t passes = 0, frames = 0, kernelCalls = 0;
    std::uint64_t reeliminated = 0, relinearized = 0;
    runtime::AcceleratedSmootherStats smoother;
    std::uint64_t compiles = 0, hits = 0, cached = 0;
    std::uint64_t fallbacks = 0, failures = 0;
    CompileTally compileTally;
};

/**
 * One traced pass: the same frames as runPass, issued as direct calls
 * to fg::IncrementalSmoother with the AcceleratedSmoother plugged in
 * as its suffix solver through TimedSolver.
 */
fg::Values
runTracedPass(const apps::PoseGraphScenario &scenario, TracedSlam &out)
{
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           pinnedEngineOptions());
    const runtime::AcceleratedSmootherOptions options;
    runtime::AcceleratedSmoother accelerated(engine, options);
    fg::IncrementalSmoother smoother(options.params);
    TimedSolver solver(accelerated, out.tracer);
    smoother.setSuffixSolver(&solver);
    fg::Values estimate;
    for (const apps::PoseGraphFrame &frame : scenario.frames) {
        const std::uint64_t request = out.tracer.spans().size() + 1;
        solver.request = request;
        const std::uint64_t calls = kernelCalls();
        std::int32_t root_index = -1;
        {
            Scoped root(&out.tracer, "fg.frame", request);
            root_index = root.index();
            {
                Scoped span(&out.tracer, "fg.smoother.add", request);
                smoother.addVariable(frame.key,
                                     scenario.initial.pose(frame.key));
                for (const fg::FactorPtr &factor : frame.factors)
                    smoother.addFactor(factor);
            }
            fg::UpdateStats stats;
            {
                Scoped span(&out.tracer, "fg.smoother.update", request);
                stats = smoother.update();
            }
            out.reeliminated += stats.eliminatedVariables;
            out.relinearized += stats.relinearized ? 1 : 0;
            Scoped span(&out.tracer, "fg.smoother.estimate", request);
            estimate = smoother.estimate();
        }
        out.kernelCalls += kernelCalls() - calls;
        out.frameMs.push_back(out.tracer.spans()[root_index].us() / 1e3);
        ++out.frames;
    }
    smoother.setSuffixSolver(nullptr);

    const runtime::AcceleratedSmootherStats &stats = accelerated.stats();
    out.smoother.acceleratedFrames += stats.acceleratedFrames;
    out.smoother.batchFrames += stats.batchFrames;
    out.smoother.cpuFrames += stats.cpuFrames;
    out.smoother.sessionsOpened += stats.sessionsOpened;
    out.smoother.sessionReuses += stats.sessionReuses;
    out.compiles += engine.stats().compiles;
    out.hits += engine.stats().cacheHits;
    out.cached += engine.cachedPrograms();
    out.fallbacks += engine.health().fallbacks.load();
    out.failures += engine.health().failures.load();
    for (const runtime::Engine::CompileRecord &record : engine.compileLog())
        out.compileTally.add(record.passes, record.instructions);
    ++out.passes;
    return estimate;
}

void
reportTraced(const TracedSlam &traced, double untraced_p50_ms,
             Report &report)
{
    const auto spans = durationsByName(traced.tracer);
    const auto self = selfByName(traced.tracer);
    const double passes = static_cast<double>(traced.passes);
    const double frames = static_cast<double>(traced.frames);
    report.set("fg.smoother_self_us", medianOf(self, "fg.smoother.update"),
               "us");
    report.set("fg.suffix_solve.accel_us",
               medianOf(spans, "fg.suffix_solve.accel"), "us");
    report.set("fg.suffix_solve.batch_us",
               medianOf(spans, "fg.suffix_solve.batch"), "us");
    report.set("fg.suffix_solve.cpu_us",
               medianOf(spans, "fg.suffix_solve.cpu"), "us");
    report.set("fg.reeliminated_vars", traced.reeliminated / frames,
               "count");
    report.set("fg.relinearized_frames", traced.relinearized / passes,
               "count");
    const runtime::AcceleratedSmootherStats &s = traced.smoother;
    report.set("runtime.smoother.accel_frames", s.acceleratedFrames / passes,
               "count");
    report.set("runtime.smoother.batch_frames", s.batchFrames / passes,
               "count");
    report.set("runtime.smoother.cpu_frames", s.cpuFrames / passes,
               "count");
    const double acquisitions =
        static_cast<double>(s.sessionReuses + s.sessionsOpened);
    report.set("runtime.smoother.session_reuse_rate",
               acquisitions > 0 ? s.sessionReuses / acquisitions : 0.0,
               "share");
    report.set("runtime.smoother.update_compiles", traced.compiles / passes,
               "count");
    const double lookups = static_cast<double>(traced.compiles + traced.hits);
    report.set("runtime.engine.cache_hit_rate",
               lookups > 0 ? traced.hits / lookups : 0.0, "share");
    report.set("runtime.engine.compiles", traced.compiles / passes, "count");
    report.set("runtime.engine.cached_programs", traced.cached / passes,
               "count");
    traced.compileTally.report(report);
    report.set("matrix.kernel_calls_per_frame", traced.kernelCalls / frames,
               "count");
    report.set("runtime.health.fallbacks",
               static_cast<double>(traced.fallbacks), "count");
    report.set("runtime.health.failures",
               static_cast<double>(traced.failures), "count");
    report.set("trace.overhead_ms",
               percentile(traced.frameMs, 0.5) - untraced_p50_ms, "ms");
    const double unattributed = unattributedShare(traced.tracer);
    report.set("trace.unattributed_share", unattributed, "share");
    if (unattributed > kUnattributedBound)
        report.fail("traced frames: layer spans leave " +
                    std::to_string(unattributed) +
                    " of the time unattributed (bound " +
                    std::to_string(kUnattributedBound) + ")");
}

/** Garage laps of 24 poses; 2 laps keep a pass near 0.3 s. */
constexpr std::size_t kLaps = 2;
constexpr std::size_t kPosesPerLap = 24;
/**
 * Distinct scenarios per run. Frame cost and accuracy vary a lot from
 * one garage seed to the next, so a run pools many of them.
 */
constexpr std::size_t kScenarios = 32;
/** Set-up repetitions; setup_s is their median. */
constexpr int kSetups = 15;
/** A final estimate further than this from the fixed point is wrong. */
constexpr double kGapLimitM = 0.1;

} // namespace

Report
runSlamGarage(const RunArgs &args)
{
    Report report;
    if (args.trace)
        zeroLayerMetrics(report);

    // Set-up: generate the scenarios (repeated; median reported).
    std::vector<double> setup_s;
    std::vector<apps::PoseGraphScenario> scenarios;
    for (int rep = 0; rep < kSetups; ++rep) {
        const std::int64_t t0 = nowNs();
        scenarios.clear();
        for (std::size_t i = 0; i < kScenarios; ++i)
            scenarios.push_back(apps::makeGarageWorld(
                kLaps, kPosesPerLap, deriveSeed(args.seed, i)));
        setup_s.push_back((nowNs() - t0) / 1e9);
    }
    report.note("workload slam-garage: 1 closed-loop stream; whole cycles "
                "over " + std::to_string(kScenarios) + " garage scenarios of " +
                std::to_string(kLaps * kPosesPerLap) +
                " frames, a fresh engine per pass, library-default "
                "AcceleratedSmootherOptions");

    // Timed phase: whole cycles over the scenarios, so every scenario
    // weighs the same; another cycle starts only if it is expected to
    // end within the budget (the first always runs).
    std::vector<double> frame_ms, open_ms;
    std::size_t passes = 0;
    std::vector<Pass> first; // First pass of each scenario.
    const std::int64_t start = nowNs();
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    double cycle_s = 0.0;
    do {
        const std::int64_t cycle_start = nowNs();
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            Pass pass = runPass(scenarios[i]);
            frame_ms.insert(frame_ms.end(), pass.frameMs.begin(),
                            pass.frameMs.end());
            open_ms.insert(open_ms.end(), pass.openingMs.begin(),
                           pass.openingMs.end());
            ++passes;
            report.attempted += pass.frameMs.size();
            report.failed += pass.failed;
            if (first.size() <= i)
                first.push_back(std::move(pass));
            else if (!bitIdentical(pass.estimate, first[i].estimate))
                report.fail("a repeated pass ended on a different estimate");
        }
        cycle_s = (nowNs() - cycle_start) / 1e9;
    } while ((nowNs() - start) / 1e9 + cycle_s <= budget * 1.05);
    const double elapsed = (nowNs() - start) / 1e9;
    const double peak_rss_mb = peakRssMb();

    // Accuracy, untimed: final estimates vs the batch fixed points.
    const std::int64_t opt0 = nowNs();
    std::vector<double> gaps;
    std::uint64_t device_frames = 0, device_cycles = 0;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        const fg::OptimizeResult batch =
            fg::optimize(scenarios[i].graph(), first[i].estimate);
        gaps.push_back(maxPoseGap(first[i].estimate, batch.values));
        if (!(gaps.back() <= kGapLimitM))
            report.fail("scenario " + std::to_string(i) + " ends " +
                        std::to_string(gaps.back()) +
                        " m from the batch fixed point");
        device_frames += first[i].deviceFrames;
        device_cycles += first[i].deviceCycles;
    }
    const double optimize_ms = (nowNs() - opt0) / 1e6;

    report.noteSamples("frame", frame_ms);
    report.noteSamples("opening", open_ms);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "passes %zu in %.3f s; per-scenario max gap vs "
                  "fg::optimize: median %.6g m, worst %.6g m (%.1f ms)",
                  passes, elapsed, median(gaps), percentile(gaps, 1.0),
                  optimize_ms);
    report.note(line);

    const double frame_p50 = percentile(frame_ms, 0.5);
    if (!args.trace) {
        report.set("setup_s", median(setup_s), "s");
        report.set("frame_p50_ms", frame_p50, "ms");
        report.set("frame_p90_ms", percentile(frame_ms, 0.9), "ms");
        report.set("frame_p99_ms", percentile(frame_ms, 0.99), "ms");
        report.set("frames_per_s", frame_ms.size() / elapsed, "1/s");
        report.set("submit_p50_ms", percentile(open_ms, 0.5), "ms");
        report.set("submit_p99_ms", percentile(open_ms, 0.99), "ms");
        report.set("sessions_per_s", passes / elapsed, "1/s");
        report.set("device_cycles_per_frame",
                   device_frames ? static_cast<double>(device_cycles) /
                                       device_frames
                                 : 0.0,
                   "cycles");
        report.set("peak_rss_mb", peak_rss_mb, "MB");
        return report;
    }

    // Traced pass over one cycle; estimates must match bit for bit.
    TracedSlam traced;
    for (std::size_t i = 0; i < scenarios.size(); ++i)
        if (!bitIdentical(runTracedPass(scenarios[i], traced),
                          first[i].estimate))
            report.fail("traced and untraced final estimates differ on "
                        "scenario " + std::to_string(i));
    report.attempted += traced.frames;
    reportTraced(traced, frame_p50, report);
    report.set("apps.build_ms", median(setup_s) * 1e3, "ms");
    report.set("fg.optimize_ms", optimize_ms, "ms");
    report.set("max_gap_m", percentile(gaps, 1.0), "m");
    if (!args.spansPath.empty() && !traced.tracer.write(args.spansPath))
        report.note("could not write spans to " + args.spansPath);
    return report;
}

} // namespace perfbench
