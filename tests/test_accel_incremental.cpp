// Incremental solving on the accelerator path (DESIGN.md §13): the
// AcceleratedSmoother against the CPU reference smoother, the
// bit-identity of device-incremental vs device-batch at a fixed
// linearization point, shape-cache amortization, the degradation
// ladder, ProgramStore round trips of update programs, and a golden
// digest of final estimates that pins device-rung results across
// compiler changes.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "apps/pose_graph.hpp"
#include "fg/factors.hpp"
#include "fg/incremental.hpp"
#include "fg/optimizer.hpp"
#include "matrix/simd.hpp"
#include "runtime/incremental.hpp"
#include "test_golden.hpp"

using namespace orianna;
using apps::PoseGraphFrame;
using apps::PoseGraphScenario;

namespace {

hw::AcceleratorConfig
config()
{
    return hw::AcceleratorConfig::minimal(true);
}

/** Replay a scenario through any smoother-shaped object. */
template <typename Smoother>
void
replay(Smoother &smoother, const PoseGraphScenario &scenario,
       std::size_t frames = SIZE_MAX)
{
    const std::size_t n = std::min(frames, scenario.frames.size());
    for (std::size_t i = 0; i < n; ++i) {
        const PoseGraphFrame &frame = scenario.frames[i];
        smoother.addVariable(frame.key,
                             scenario.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors)
            smoother.addFactor(factor);
        smoother.update();
    }
}

double
maxTrajectoryDelta(const fg::Values &a, const fg::Values &b)
{
    double worst = 0.0;
    for (fg::Key key : a.keys())
        worst = std::max(
            worst, (a.pose(key).t() - b.pose(key).t()).norm());
    return worst;
}

/** Never relinearize after the first frame (fixed-point regime). */
fg::IncrementalParams
frozenParams()
{
    fg::IncrementalParams params;
    params.relinearizeInterval = 0;
    params.relinearizeThreshold = 1e18;
    return params;
}

} // namespace

// The accelerated smoother follows the CPU reference smoother within
// floating-point noise across a full nonlinear manhattan run (the
// device QR is a Givens array, the host reference is Householder, so
// cross-path agreement is tolerance-based, not bit-exact).
TEST(AccelIncremental, TracksCpuSmootherOnManhattan)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(60, /*seed=*/7);
    ASSERT_GT(scenario.loopClosureFrames(), 0u);

    fg::IncrementalSmoother cpu;
    replay(cpu, scenario);

    runtime::Engine engine(config());
    runtime::AcceleratedSmoother accel(engine);
    replay(accel, scenario);

    EXPECT_LT(maxTrajectoryDelta(cpu.estimate(), accel.estimate()),
              1e-6);
    EXPECT_GT(accel.stats().acceleratedFrames, 0u);
    EXPECT_GT(accel.stats().batchFrames, 0u);
}

// Tentpole bit-identity: with the linearization point frozen, an
// incremental device run and a single all-factors-at-once device
// batch eliminate the same rows in the same canonical order through
// the same Givens kernel — the results must agree bit for bit.
TEST(AccelIncremental, IncrementalMatchesDeviceBatchBitIdentical)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(50, /*seed=*/3);

    // Bit identity with the batch reference rung is an fp64
    // contract: that rung always runs fp64, so pin the datapath
    // against ORIANNA_PRECISION.
    runtime::EngineOptions engine_options;
    engine_options.precision = comp::Precision::Fp64;
    runtime::Engine engine(config(), engine_options);
    runtime::AcceleratedSmootherOptions options;
    options.params = frozenParams();

    // Incremental: one frame at a time, suffix updates on-device.
    runtime::AcceleratedSmoother incremental(engine, options);
    replay(incremental, scenario);

    // Batch: everything in one update — a single relinearize-all
    // frame on the batch reference rung, at the same linearization
    // point (the shared scenario.initial guesses).
    runtime::AcceleratedSmoother batch(engine, options);
    for (const PoseGraphFrame &frame : scenario.frames)
        batch.addVariable(frame.key,
                          scenario.initial.pose(frame.key));
    for (const PoseGraphFrame &frame : scenario.frames)
        for (const fg::FactorPtr &factor : frame.factors)
            batch.addFactor(factor);
    batch.update();

    const fg::Values a = incremental.estimate();
    const fg::Values b = batch.estimate();
    ASSERT_EQ(a.keys(), b.keys());
    for (fg::Key key : a.keys()) {
        const lie::Pose &pa = a.pose(key);
        const lie::Pose &pb = b.pose(key);
        for (std::size_t i = 0; i < pa.phi().size(); ++i)
            EXPECT_EQ(pa.phi()[i], pb.phi()[i]) << "pose " << key;
        for (std::size_t i = 0; i < pa.t().size(); ++i)
            EXPECT_EQ(pa.t()[i], pb.t()[i]) << "pose " << key;
    }
    EXPECT_GT(incremental.stats().acceleratedFrames, 0u);
}

// Two identical accelerated runs are bit-identical (deterministic
// device kernels, deterministic schedule).
TEST(AccelIncremental, AcceleratedRunsAreDeterministic)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(40, /*seed=*/11);
    runtime::Engine engine(config());

    runtime::AcceleratedSmoother first(engine);
    replay(first, scenario);
    runtime::AcceleratedSmoother second(engine);
    replay(second, scenario);

    EXPECT_EQ(maxTrajectoryDelta(first.estimate(),
                                 second.estimate()),
              0.0);
}

// Full nonlinear corpus agreement: every corpus scenario optimized
// incrementally on-device lands within 1e-6 of the batch Gauss-
// Newton solution of the same graph. A tight relinearization
// threshold plus a few factor-less polish updates (which relinearize
// on that threshold — the early-return bugfix) drive the incremental
// run to the same fixed point the batch solver converges to.
TEST(AccelIncremental, CorpusScenariosAgreeWithBatchSolve)
{
    runtime::Engine engine(config());
    const PoseGraphScenario corpus[] = {
        apps::makeManhattanWorld(60, 5),
        apps::makeSphereWorld(4, 12, 5),
        apps::makeGarageWorld(3, 12, 5),
    };
    for (const PoseGraphScenario &scenario : corpus) {
        SCOPED_TRACE(scenario.name);
        ASSERT_GT(scenario.loopClosureFrames(), 0u);

        runtime::AcceleratedSmootherOptions options;
        options.params.relinearizeThreshold = 1e-5;
        runtime::AcceleratedSmoother accel(engine, options);
        replay(accel, scenario);
        for (int polish = 0; polish < 3; ++polish)
            accel.update();

        // Batch Gauss-Newton on the flattened graph, started from
        // the same initial guesses.
        fg::GaussNewtonParams gn;
        gn.maxIterations = 20;
        fg::Values batch =
            fg::optimize(scenario.graph(), scenario.initial, gn)
                .values;

        EXPECT_LT(maxTrajectoryDelta(accel.estimate(), batch), 1e-6);
    }
}

// Steady-state shape reuse: the garage stream repeats the same two
// affected-suffix shapes (odometry, one-lap closure) frame after
// frame, so sessions — and compiles — stay far below the frame
// count. This is the whole point of shape-only fingerprints.
TEST(AccelIncremental, UpdateShapesAmortizeAcrossFrames)
{
    const PoseGraphScenario scenario =
        apps::makeGarageWorld(8, 16, /*seed=*/2);
    runtime::Engine engine(config());
    runtime::AcceleratedSmootherOptions options;
    options.params = frozenParams();
    runtime::AcceleratedSmoother accel(engine, options);
    replay(accel, scenario);

    const auto &stats = accel.stats();
    const std::uint64_t device_frames =
        stats.acceleratedFrames + stats.batchFrames;
    EXPECT_GT(stats.sessionReuses, device_frames / 2);
    EXPECT_LT(stats.sessionsOpened, device_frames / 4);
    // Compiles can only have happened on session opens (at most two
    // programs per shape: optimized + reference).
    EXPECT_LE(engine.stats().compiles, 2 * stats.sessionsOpened);
}

// The smoother keeps 16 sessions warm; a shape evicted from that LRU
// re-opens against the engine's program cache. Here lap 3 of a
// 4-lap garage drops its vertical closures, so lap 4 re-walks the
// ~20 transitional closure shapes of lap 2 after more than 16 other
// shapes evicted them: every re-open is an engine cache hit, never a
// recompile.
TEST(AccelIncremental, EvictedShapesReopenFromTheProgramCache)
{
    constexpr std::size_t kPerLap = 20;
    PoseGraphScenario scenario =
        apps::makeGarageWorld(4, kPerLap, /*seed=*/2);
    for (std::size_t i = 2 * kPerLap; i < 3 * kPerLap; ++i) {
        PoseGraphFrame &frame = scenario.frames[i];
        std::erase_if(frame.factors, [&](const fg::FactorPtr &factor) {
            for (fg::Key key : factor->keys())
                if (key + 1 < frame.key)
                    return true;
            return false;
        });
        frame.loopClosure = false;
    }

    // Pinned fp64 and fault-free: one program per session open.
    runtime::EngineOptions engine_options;
    engine_options.precision = comp::Precision::Fp64;
    runtime::Engine engine(config(), engine_options);
    runtime::AcceleratedSmootherOptions options;
    options.params = frozenParams();
    runtime::AcceleratedSmoother accel(engine, options);
    replay(accel, scenario);

    const auto &stats = accel.stats();
    const runtime::Engine::Stats engine_stats = engine.stats();
    EXPECT_EQ(stats.cpuFrames, 0u);
    EXPECT_GT(stats.sessionsOpened, engine_stats.compiles);
    EXPECT_EQ(engine_stats.cacheHits,
              stats.sessionsOpened - engine_stats.compiles);
}

// Oversize suffixes take the CPU reference path instead of
// compiling a one-off giant program.
TEST(AccelIncremental, OversizeSuffixFallsBackToCpu)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(40, /*seed=*/9);
    runtime::Engine engine(config());
    runtime::AcceleratedSmootherOptions options;
    options.maxAcceleratedSuffix = 8;
    runtime::AcceleratedSmoother accel(engine, options);
    replay(accel, scenario);

    EXPECT_GT(accel.stats().cpuFrames, 0u);
    EXPECT_GT(accel.stats().acceleratedFrames, 0u);

    fg::IncrementalSmoother cpu;
    replay(cpu, scenario);
    EXPECT_LT(maxTrajectoryDelta(cpu.estimate(), accel.estimate()),
              1e-6);
}

// The degradation ladder protects incremental frames: with an armed
// injector flipping datapath bits, frames retry and fall back to the
// reference update program instead of landing poisoned deltas.
TEST(AccelIncremental, InjectedFaultsFallBackToReferenceRung)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(40, /*seed=*/13);

    runtime::EngineOptions options;
    options.faultPlan = hw::FaultPlan::parse("7@corrupt:all:0.02");
    runtime::Engine engine(config(), options);
    runtime::AcceleratedSmoother accel(engine);
    replay(accel, scenario);

    // Functional result still tracks the clean CPU run.
    fg::IncrementalSmoother cpu;
    replay(cpu, scenario);
    EXPECT_LT(maxTrajectoryDelta(cpu.estimate(), accel.estimate()),
              1e-6);
    EXPECT_GT(engine.health().faultsDetected.load(), 0u);
}

// Update programs round-trip through the persistent ProgramStore: a
// warm restart against the same directory serves previously seen
// update shapes from disk.
TEST(AccelIncremental, UpdateProgramsRoundTripThroughStore)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(40, /*seed=*/4);
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "orianna_accel_incr_store_test")
            .string();
    std::filesystem::remove_all(dir);

    runtime::EngineOptions options;
    options.storeDir = dir;
    std::uint64_t cold_compiles = 0;
    {
        runtime::Engine engine(config(), options);
        runtime::AcceleratedSmoother accel(engine);
        replay(accel, scenario);
        cold_compiles = engine.stats().compiles;
        EXPECT_GT(engine.stats().storeWrites, 0u);
    }
    {
        runtime::Engine engine(config(), options);
        runtime::AcceleratedSmoother accel(engine);
        replay(accel, scenario);
        EXPECT_EQ(engine.stats().compiles, 0u);
        EXPECT_EQ(engine.stats().storeHits, cold_compiles);
    }
    std::filesystem::remove_all(dir);
}

// Fixed-lag operation: marginalizing the leading poses preserves the
// information exactly, so a subsequent loop closure lands on the same
// estimate the CPU smoother produces.
TEST(AccelIncremental, MarginalizeThenLoopClosureTracksCpu)
{
    const PoseGraphScenario scenario =
        apps::makeManhattanWorld(60, /*seed=*/21);

    runtime::Engine engine(config());
    runtime::AcceleratedSmoother accel(engine);
    fg::IncrementalSmoother cpu;

    const std::size_t cut = 40;
    replay(accel, scenario, cut);
    replay(cpu, scenario, cut);
    accel.marginalizeLeading(10);
    cpu.marginalizeLeading(10);
    for (std::size_t i = cut; i < scenario.frames.size(); ++i) {
        const PoseGraphFrame &frame = scenario.frames[i];
        accel.addVariable(frame.key,
                          scenario.initial.pose(frame.key));
        cpu.addVariable(frame.key,
                        scenario.initial.pose(frame.key));
        for (const fg::FactorPtr &factor : frame.factors) {
            accel.addFactor(factor);
            cpu.addFactor(factor);
        }
        accel.update();
        cpu.update();
    }
    EXPECT_LT(maxTrajectoryDelta(cpu.estimate(), accel.estimate()),
              1e-6);
}

// Shape fingerprints are pure shape: two different frames with the
// same affected-suffix structure share one fingerprint, and any
// structural difference separates them.
TEST(AccelIncremental, UpdateFingerprintIsShapeOnly)
{
    comp::UpdateSpec spec;
    spec.dofs = {3, 3};
    spec.rows.push_back({3, {0}});
    spec.rows.push_back({3, {0, 1}});
    spec.steps.push_back({{0, 1}, {0, 1}, 3});
    spec.steps.push_back({{2}, {1}, 0});

    comp::UpdateSpec same = spec;
    same.name = "renamed";
    same.precision = comp::Precision::Fp32;
    EXPECT_EQ(comp::updateFingerprint(spec),
              comp::updateFingerprint(same));

    comp::UpdateSpec different = spec;
    different.steps[0].kept = 2;
    EXPECT_NE(comp::updateFingerprint(spec),
              comp::updateFingerprint(different));
}

// The committed data/g2o excerpts load, stream through
// scenarioFromG2o, and the accelerated replay agrees with a batch
// Gauss-Newton solve of the flattened graph — the full corpus round
// trip: generator -> g2o file -> reader -> frame stream -> device.
TEST(AccelIncremental, CommittedG2oCorpusReplays)
{
    const std::string dir = ORIANNA_G2O_DIR;
    const struct
    {
        const char *file;
        std::size_t spaceDim;
    } corpus[] = {{"manhattan_lite.g2o", 2},
                  {"sphere_lite.g2o", 3},
                  {"garage_lite.g2o", 3}};

    runtime::Engine engine(config());
    for (const auto &entry : corpus) {
        const fg::PoseGraphData data =
            fg::loadG2o(dir + "/" + entry.file);
        EXPECT_TRUE(data.warnings.empty()) << entry.file;
        const PoseGraphScenario scenario =
            apps::scenarioFromG2o(data, entry.file);
        ASSERT_EQ(scenario.frames.size(), 120u) << entry.file;
        ASSERT_EQ(scenario.spaceDim, entry.spaceDim) << entry.file;
        ASSERT_GT(scenario.loopClosureFrames(), 0u) << entry.file;

        runtime::AcceleratedSmootherOptions options;
        options.params.relinearizeThreshold = 1e-5;
        runtime::AcceleratedSmoother accel(engine, options);
        replay(accel, scenario);
        for (int polish = 0; polish < 3; ++polish)
            accel.update();

        fg::GaussNewtonParams gn;
        gn.maxIterations = 20;
        const auto batch =
            fg::optimize(scenario.graph(), scenario.initial, gn);
        EXPECT_LT(maxTrajectoryDelta(batch.values, accel.estimate()),
                  1e-6)
            << entry.file;
    }
}

namespace {

/** Every double of @p v, byte for byte, as hex. */
void
appendBytes(std::ostringstream &text, const mat::Vector &v)
{
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double x = v[i];
        unsigned char bytes[sizeof x];
        std::memcpy(bytes, &x, sizeof x);
        char hex[2 * sizeof x + 1];
        for (std::size_t b = 0; b < sizeof x; ++b)
            std::snprintf(hex + 2 * b, 3, "%02x", bytes[b]);
        text << " " << hex;
    }
}

} // namespace

// The final estimates of library-default AcceleratedSmoother replays
// (batch-rung relinearizations and device suffix updates alike), byte
// for byte. Unlike the bit-identity test
// above, which compares two rungs of one build, this pins the results
// across commits: a change to update codegen, the sweep or the host
// readback that moves a single bit of any estimate shows here. The
// datapath is pinned to fp64 and the dense kernels to the scalar tier,
// as for encoded_programs.digest.
TEST(AccelIncremental, SmootherEstimatesMatchCheckedInGolden)
{
    const mat::kernels::ScopedKernelTier pin(
        mat::kernels::SimdTier::Scalar);
    ASSERT_TRUE(pin.ok());
    runtime::EngineOptions engine_options;
    engine_options.precision = comp::Precision::Fp64;
    runtime::Engine engine(config(), engine_options);

    std::ostringstream digest;
    digest << "fnv1a64 of final AcceleratedSmoother estimates "
           << "(fp64, scalar kernel tier, default options)\n";
    for (unsigned seed : {1u, 2u, 3u}) {
        for (const PoseGraphScenario &scenario :
             {apps::makeGarageWorld(2, 24, seed),
              apps::makeManhattanWorld(60, seed)}) {
            runtime::AcceleratedSmoother accel(engine);
            replay(accel, scenario);
            const fg::Values estimate = accel.estimate();
            std::ostringstream text;
            for (fg::Key key : estimate.keys()) {
                text << key;
                appendBytes(text, estimate.pose(key).phi());
                appendBytes(text, estimate.pose(key).t());
                text << "\n";
            }
            EXPECT_GT(accel.stats().acceleratedFrames, 0u)
                << scenario.name;
            digest << scenario.name << " seed " << seed << " "
                   << test::fnv1a64(text.str()) << "\n";
        }
    }
    test::expectMatchesGolden(ORIANNA_GOLDEN_DIR "/smoother_estimates.digest",
                              digest.str());
}
