// Golden-trace regression test: the mobile_robot schedule on its
// generated fig.13-style accelerator is fully deterministic (the
// cycle-level simulator has no randomness; schedules depend only on
// the program structure), so a structural digest of the schedule —
// event count, makespan, per-unit busy cycles — is byte-stable across
// runs and thread counts. Any change in the compiler, scheduler or
// cost model that moves the paper-facing schedule shows up here as a
// digest diff instead of a silent drift.
//
// Regenerate the checked-in digest after an intentional change with:
//   ORIANNA_REGEN_GOLDEN=1 ./test_golden_trace

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "hwgen/generator.hpp"
#include "matrix/simd.hpp"
#include "runtime/execution_context.hpp"
#include "runtime/server_pool.hpp"
#include "test_golden.hpp"

namespace {

using namespace orianna;

/** Seed and budget of the latency benches (bench/bench_common.hpp). */
constexpr unsigned kBenchSeed = 5;

hw::Resources
zc706Budget()
{
    return {131000, 262000, 327, 540};
}

const char *kGoldenPath =
    ORIANNA_GOLDEN_DIR "/mobile_robot_fig13.digest";

/**
 * Structural digest of one simulated frame's schedule: every number a
 * schedule regression would move, in a fixed text layout.
 */
std::string
scheduleDigest(const std::vector<hw::WorkItem> &work,
               const hw::AcceleratorConfig &config)
{
    hw::AcceleratorConfig traced = config;
    traced.recordTrace = true;
    runtime::ExecutionContext context(work);
    const hw::SimResult frame = context.run(traced);

    std::ostringstream out;
    out << "app mobile_robot seed " << kBenchSeed << "\n";
    out << "events " << frame.trace.size() << "\n";
    out << "makespan_cycles " << frame.cycles << "\n";
    for (std::size_t k = 0; k < hw::kUnitKindCount; ++k)
        out << "busy_cycles "
            << hw::unitName(static_cast<hw::UnitKind>(k)) << " "
            << frame.unitBusyCycles[k] << "\n";
    for (std::size_t p = 0; p < frame.phaseBusyCycles.size(); ++p)
        out << "phase_busy_cycles " << p << " "
            << frame.phaseBusyCycles[p] << "\n";
    // The last event's end pins the tail of the schedule.
    if (!frame.trace.empty()) {
        const hw::TraceEvent &last = frame.trace.back();
        out << "last_event " << last.name << " "
            << last.startCycle << " " << last.endCycle << "\n";
    }
    return out.str();
}

struct GoldenSetup
{
    apps::BenchmarkApp bench;
    std::vector<hw::WorkItem> work;
    hw::AcceleratorConfig config;
};

GoldenSetup
makeSetup()
{
    GoldenSetup setup{
        apps::buildApp(apps::AppKind::MobileRobot, kBenchSeed),
        {},
        {}};
    setup.bench.app.compile();
    setup.work = setup.bench.app.frameWork();
    setup.config = hwgen::generate(setup.work, zc706Budget(),
                                   hwgen::Objective::AvgLatency, true)
                       .config;
    return setup;
}

TEST(GoldenTrace, MobileRobotScheduleMatchesCheckedInDigest)
{
    const GoldenSetup setup = makeSetup();
    const std::string digest = scheduleDigest(setup.work, setup.config);

    test::expectMatchesGolden(kGoldenPath, digest);
}

TEST(GoldenTrace, ScalarKernelTierReproducesDigestByteIdentically)
{
    // The bit-exact contract of ORIANNA_SIMD=scalar (DESIGN.md §10):
    // with the scalar kernel table pinned, the fig.13 digest matches
    // the checked-in golden byte for byte — no regeneration, no
    // tolerance. (The digest is structural, so faster tiers also
    // reproduce it; this test is the guarantee for the reference
    // tier specifically.)
    const mat::kernels::ScopedKernelTier pin(
        mat::kernels::SimdTier::Scalar);
    ASSERT_TRUE(pin.ok());

    if (std::getenv("ORIANNA_REGEN_GOLDEN") != nullptr)
        GTEST_SKIP() << "regenerating; covered by the test above";

    const GoldenSetup setup = makeSetup();
    test::expectMatchesGolden(kGoldenPath,
                              scheduleDigest(setup.work, setup.config));
}

TEST(GoldenTrace, DigestIsStableAcrossRunsAndThreadCounts)
{
    const GoldenSetup setup = makeSetup();
    const std::string reference =
        scheduleDigest(setup.work, setup.config);

    // Re-running in a fresh context must reproduce every byte.
    EXPECT_EQ(scheduleDigest(setup.work, setup.config), reference);

    // Concurrency must not leak into the schedule: digests computed
    // on pool workers (any thread count) equal the sequential one.
    for (unsigned threads : {2u, 4u}) {
        runtime::ServerPool pool(threads);
        std::vector<std::string> digests(threads);
        pool.parallelFor(threads, [&](std::size_t i) {
            digests[i] = scheduleDigest(setup.work, setup.config);
        });
        for (const std::string &digest : digests)
            EXPECT_EQ(digest, reference)
                << "thread count " << threads;
    }
}

} // namespace
