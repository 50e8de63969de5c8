// The optimizing sweep (comp::cleanup and comp::optimize): its
// equivalence check, bit-identical deltas of the optimized streams on
// the four benchmark applications, Engine pass diagnostics, encoding of
// the fused opcodes, and golden per-application regressions: the
// instruction counts, a digest of every pipeline output listing, a
// digest of every code generator's raw elimination tail, and a digest
// of every pipeline output's encoded bytes.
//
// Regenerate the checked-in golden files after an intentional
// compiler change with:
//   ORIANNA_REGEN_GOLDEN=1 ./test_passes

#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "apps/pose_graph.hpp"
#include "compiler/codegen.hpp"
#include "compiler/encoding.hpp"
#include "compiler/executor.hpp"
#include "compiler/incremental_codegen.hpp"
#include "compiler/optimize.hpp"
#include "fg/factors.hpp"
#include "fg/io_g2o.hpp"
#include "fg/ordering.hpp"
#include "matrix/simd.hpp"
#include "runtime/engine.hpp"
#include "runtime/incremental.hpp"
#include "test_fg_common.hpp"
#include "test_golden.hpp"

namespace {

using namespace orianna;
using orianna::test::expectMatchesGolden;
using orianna::test::listingDigest;
using orianna::test::randomPose;
using orianna::test::randomVector;
using comp::IsaOp;
using comp::PassStats;
using comp::Program;
using fg::FactorGraph;
using fg::Values;
using lie::Pose;
using mat::Vector;

/** Seed of the latency benches (bench/bench_common.hpp). */
constexpr unsigned kBenchSeed = 5;

const char *kGoldenPath =
    ORIANNA_GOLDEN_DIR "/instruction_counts.txt";
const char *kListingGoldenPath =
    ORIANNA_GOLDEN_DIR "/pipeline_listing.digest";
const char *kEliminationGoldenPath =
    ORIANNA_GOLDEN_DIR "/elimination_listing.digest";
const char *kEncodedGoldenPath =
    ORIANNA_GOLDEN_DIR "/encoded_programs.digest";

/** All four benchmark applications, compiled once per process. */
const std::vector<apps::BenchmarkApp> &
compiledApps()
{
    static std::vector<apps::BenchmarkApp> apps_list = [] {
        std::vector<apps::BenchmarkApp> out;
        for (apps::AppKind kind : apps::allApps()) {
            out.push_back(apps::buildApp(kind, kBenchSeed));
            out.back().app.compile();
        }
        return out;
    }();
    return apps_list;
}

void
expectBitIdenticalDeltas(const Program &a, const Program &b,
                         const Values &values)
{
    comp::Executor exec_a(a);
    comp::Executor exec_b(b);
    const auto da = exec_a.run(values);
    const auto db = exec_b.run(values);
    ASSERT_EQ(da.size(), db.size());
    for (const auto &[key, delta] : da) {
        const auto it = db.find(key);
        ASSERT_NE(it, db.end()) << "missing delta for key " << key;
        ASSERT_EQ(delta.size(), it->second.size());
        for (std::size_t i = 0; i < delta.size(); ++i) {
            const double x = delta[i];
            const double y = it->second[i];
            std::uint64_t bx = 0, by = 0;
            std::memcpy(&bx, &x, sizeof x);
            std::memcpy(&by, &y, sizeof y);
            EXPECT_EQ(bx, by)
                << "key " << key << " component " << i;
        }
    }
}

/** A small pose chain for the unit-level pipeline tests. */
FactorGraph
chainGraph(std::size_t n, Values &values, std::mt19937 &rng)
{
    FactorGraph graph;
    values = Values();
    Pose current = Pose::identity(3);
    for (std::size_t i = 0; i < n; ++i) {
        values.insert(i, current.retract(randomVector(6, rng, 0.05)));
        Pose step = randomPose(3, rng, 0.2, 1.0);
        if (i + 1 < n)
            graph.emplace<fg::BetweenFactor>(
                i, i + 1, step, fg::isotropicSigmas(6, 0.1));
        current = current.oplus(step);
    }
    graph.emplace<fg::PriorFactor>(0u, Pose::identity(3),
                                   fg::isotropicSigmas(6, 0.01));
    return graph;
}

// --- The paper-facing acceptance criterion ---------------------------

TEST(Passes, DefaultPipelineKeepsDeltasBitIdenticalOnAllApps)
{
    // The optimized stream (dedup,dce,cse,fuse) must produce
    // bit-identical Gauss-Newton deltas to the pre-refactor stream
    // (dedup,dce) on every algorithm of every application.
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        const core::Application &app = bench.app;
        for (std::size_t a = 0; a < app.size(); ++a) {
            const core::Algorithm &algo = app.algorithm(a);
            SCOPED_TRACE(app.name() + "/" + algo.name);
            expectBitIdenticalDeltas(algo.referenceProgram,
                                     algo.program, algo.values);
        }
    }
}

TEST(Passes, CseAndFusionShrinkMostApplications)
{
    std::size_t apps_reduced = 0;
    std::size_t apps_with_fused_ops = 0;
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        std::size_t reference = 0, optimized = 0, fused = 0;
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            reference += algo.referenceProgram.instructions.size();
            optimized += algo.program.instructions.size();
            const auto histogram = algo.program.opHistogram();
            fused +=
                histogram[static_cast<std::size_t>(IsaOp::GSCALE)] +
                histogram[static_cast<std::size_t>(IsaOp::MVSUB)];
        }
        if (optimized < reference)
            ++apps_reduced;
        if (fused > 0)
            ++apps_with_fused_ops;
    }
    EXPECT_GE(apps_reduced, 2u);
    EXPECT_GE(apps_with_fused_ops, 2u);
}

TEST(Passes, PipelineRecordsPerPassStats)
{
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            ASSERT_EQ(algo.passStats.size(), 4u);
            EXPECT_EQ(algo.passStats[0].pass, "dedup");
            EXPECT_EQ(algo.passStats[1].pass, "dce");
            EXPECT_EQ(algo.passStats[2].pass, "cse");
            EXPECT_EQ(algo.passStats[3].pass, "fuse");
            for (std::size_t p = 0; p < algo.passStats.size(); ++p) {
                const PassStats &stat = algo.passStats[p];
                EXPECT_GE(stat.before, stat.after);
                if (p > 0) {
                    EXPECT_EQ(stat.before,
                              algo.passStats[p - 1].after);
                }
            }
        }
    }
}

// --- Golden instruction-count regression -----------------------------

TEST(Passes, InstructionCountsMatchCheckedInGolden)
{
    std::ostringstream digest;
    digest << "seed " << kBenchSeed << " pipeline "
           << comp::kOptimizeSpec << "\n";
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            digest << bench.app.name() << " " << algo.name
                   << " reference "
                   << algo.referenceProgram.instructions.size()
                   << " optimized "
                   << algo.program.instructions.size() << "\n";
        }
    }

    expectMatchesGolden(kGoldenPath, digest.str());
}

TEST(Passes, PipelineListingsMatchCheckedInGolden)
{
    // instruction_counts.txt pins sizes only; this pins the slot
    // numbering, deps and bindings of the default-pipeline program,
    // its "dedup,dce" reference stream and the dense "dedup,dce"
    // stream of every algorithm.
    std::ostringstream digest;
    digest << "seed " << kBenchSeed << " fnv1a64 of listing, "
           << "placements and delta bindings\n";
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            digest << bench.app.name() << " " << algo.name
                   << " default " << listingDigest(algo.program)
                   << " dedup,dce "
                   << listingDigest(algo.referenceProgram)
                   << " dense " << listingDigest(algo.denseProgram)
                   << "\n";
        }
    }
    expectMatchesGolden(kListingGoldenPath, digest.str());
}

/**
 * Records every distinct update shape a smoother replay compiles:
 * the suffixes a default AcceleratedSmoother sends to the device
 * (larger ones take its CPU rung and are never compiled).
 */
class SpecRecorder final : public fg::SuffixSolver
{
  public:
    std::vector<comp::UpdateSpec> specs;

    fg::SuffixSolution
    solve(const fg::SuffixSchedule &schedule,
          const std::vector<const fg::LinearRow *> &rows) override
    {
        if (schedule.variables.size() <=
            runtime::AcceleratedSmootherOptions{}.maxAcceleratedSuffix) {
            comp::UpdateSpec spec =
                runtime::specFromSchedule(schedule, rows);
            if (seen_.insert(comp::updateFingerprint(spec)).second)
                specs.push_back(std::move(spec));
        }
        return fg::solveSuffixOnCpu(schedule, rows);
    }

  private:
    std::set<std::uint64_t> seen_;
};

/** The host-boundary keys of an update program, as one string. */
std::string
layoutText(const comp::UpdateLayout &layout)
{
    std::ostringstream text;
    for (const comp::UpdateLayout::RowKeys &row : layout.inputs) {
        text << "in";
        for (const std::vector<comp::Key> &cols : row.blockColumns)
            for (comp::Key key : cols)
                text << " " << key;
        text << " rhs " << row.rhs << "\n";
    }
    for (const comp::UpdateLayout::StepKeys &step : layout.outputs) {
        text << "out dv " << step.dv << " height " << step.height
             << " width " << step.width << " " << step.key << "\n";
    }
    text << "deltas";
    for (comp::Key key : layout.deltaKeys)
        text << " " << key;
    return text.str();
}

/** The distinct update shapes of one corpus file's replay. */
struct CorpusSpecs
{
    const char *file;
    std::vector<comp::UpdateSpec> specs;
};

/**
 * Every distinct update shape of a fixed-linearization replay of the
 * committed lite corpus, recorded once per process. The replay never
 * relinearizes, so its suffixes are the incremental ones and the CPU
 * reference solve behind the recorder stays cheap.
 */
const std::vector<CorpusSpecs> &
corpusUpdateSpecs()
{
    static const std::vector<CorpusSpecs> corpus = [] {
        std::vector<CorpusSpecs> out;
        for (const char *file : {"manhattan_lite.g2o", "sphere_lite.g2o",
                                 "garage_lite.g2o"}) {
            const apps::PoseGraphScenario scenario =
                apps::scenarioFromG2o(
                    fg::loadG2o(std::string(ORIANNA_G2O_DIR) + "/" +
                                file),
                    file);
            SpecRecorder recorder;
            fg::IncrementalParams params;
            params.relinearizeInterval = 0;
            params.relinearizeThreshold = 1e18;
            fg::IncrementalSmoother smoother(params);
            smoother.setSuffixSolver(&recorder);
            for (const apps::PoseGraphFrame &frame : scenario.frames) {
                smoother.addVariable(frame.key,
                                     scenario.initial.pose(frame.key));
                for (const fg::FactorPtr &factor : frame.factors)
                    smoother.addFactor(factor);
                smoother.update();
            }
            out.push_back({file, std::move(recorder.specs)});
        }
        return out;
    }();
    return corpus;
}

TEST(Passes, EliminationListingsMatchCheckedInGolden)
{
    // The raw (pre-pass) elimination tails of every code generator,
    // phase tags included: compileGraph and compileDenseGraph on each
    // application algorithm, and compileUpdate (raw and default
    // pipeline, plus its host-boundary layout) on every distinct
    // update shape of the g2o corpus replay.
    std::ostringstream digest;
    digest << "seed " << kBenchSeed << " fnv1a64 of raw listings with "
           << "phase tags\n";
    for (const apps::BenchmarkApp &bench : compiledApps()) {
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            comp::CompileOptions options;
            options.algorithmTag = static_cast<std::uint8_t>(a);
            options.name = bench.app.name() + "/" + algo.name;
            options.ordering = fg::ordering::minDegree(algo.graph);
            digest << bench.app.name() << " " << algo.name << " graph "
                   << listingDigest(comp::compileGraph(
                                        algo.graph, algo.values, options),
                                    true)
                   << " dense "
                   << listingDigest(comp::compileDenseGraph(
                                        algo.graph, algo.values, options),
                                    true)
                   << "\n";
        }
    }

    for (const CorpusSpecs &corpus : corpusUpdateSpecs()) {
        ASSERT_FALSE(corpus.specs.empty()) << corpus.file;
        for (std::size_t i = 0; i < corpus.specs.size(); ++i) {
            const comp::UpdateSpec &spec = corpus.specs[i];
            Program program = comp::compileUpdate(spec);
            digest << corpus.file << " update " << i << " raw "
                   << listingDigest(program, true);
            comp::optimize(program);
            digest << " default " << listingDigest(program, true)
                   << " layout "
                   << test::fnv1a64(layoutText(comp::updateLayout(spec)))
                   << "\n";
        }
    }
    expectMatchesGolden(kEliminationGoldenPath, digest.str());
}

/** FNV-1a of a program's binary encoding. */
std::string
encodedDigest(const Program &program)
{
    const std::vector<std::uint8_t> bytes = comp::encodeProgram(program);
    return test::fnv1a64(std::string(bytes.begin(), bytes.end()));
}

TEST(Passes, EncodedProgramsMatchCheckedInGolden)
{
    // The listing digests pin slots, deps and bindings but not the
    // payloads: LOADC/SCALER constants, camera intrinsics and SDF
    // operands. Merging analyses keep one occurrence's payload, so this
    // pins the encoded bytes of every optimized ("default") and
    // cleanup-only ("dedup,dce") program: the app algorithms (sparse
    // and dense) and the corpus update programs.
    //
    // The app builders' payloads (ICP scan matching, for one) go
    // through the dense kernels, whose AVX2 tier rounds differently
    // from the scalar one. So, like the other payload-sensitive
    // goldens, this one is defined on the scalar reference tier, with
    // the apps built under the pin.
    const mat::kernels::ScopedKernelTier pin(
        mat::kernels::SimdTier::Scalar);
    ASSERT_TRUE(pin.ok());
    std::ostringstream digest;
    digest << "seed " << kBenchSeed << " fnv1a64 of encoded programs "
           << "(scalar kernel tier)\n";
    for (apps::AppKind kind : apps::allApps()) {
        apps::BenchmarkApp bench = apps::buildApp(kind, kBenchSeed);
        bench.app.compile();
        for (std::size_t a = 0; a < bench.app.size(); ++a) {
            const core::Algorithm &algo = bench.app.algorithm(a);
            digest << bench.app.name() << " " << algo.name
                   << " default " << encodedDigest(algo.program)
                   << " dedup,dce "
                   << encodedDigest(algo.referenceProgram)
                   << " dense " << encodedDigest(algo.denseProgram)
                   << "\n";
        }
    }

    for (const CorpusSpecs &corpus : corpusUpdateSpecs()) {
        ASSERT_FALSE(corpus.specs.empty()) << corpus.file;
        for (std::size_t i = 0; i < corpus.specs.size(); ++i) {
            Program program = comp::compileUpdate(corpus.specs[i]);
            Program reference = program;
            comp::optimize(program);
            comp::cleanup(reference);
            digest << corpus.file << " update " << i << " default "
                   << encodedDigest(program) << " dedup,dce "
                   << encodedDigest(reference) << "\n";
        }
    }
    expectMatchesGolden(kEncodedGoldenPath, digest.str());
}

// --- The sweep's equivalence check ----------------------------------

TEST(Passes, VerificationAcceptsTheSoundPipeline)
{
    std::mt19937 rng(7);
    Values values;
    const FactorGraph graph = chainGraph(6, values, rng);
    Program program = comp::compileGraph(graph, values);
    const Program original = program;

    comp::SweepOptions options;
    options.probe = &values;
    options.verify = true;
    const std::vector<PassStats> stats = comp::optimize(program, options);

    ASSERT_EQ(stats.size(), 4u);
    for (const PassStats &stat : stats)
        EXPECT_TRUE(stat.verified) << stat.pass;
    expectBitIdenticalDeltas(original, program, values);
}

TEST(Passes, VerificationRejectsABrokenPass)
{
    std::mt19937 rng(8);
    Values values;
    const FactorGraph graph = chainGraph(5, values, rng);
    Program program = comp::compileGraph(graph, values);

    // A deliberately unsound rewrite: perturbs the first LOADC payload.
    const auto broken = [](Program &p) {
        for (comp::Instruction &inst : p.instructions) {
            if (inst.op == IsaOp::LOADC && inst.constVec.size() > 0) {
                inst.constVec[0] = inst.constVec[0] + 1.0;
                return;
            }
        }
    };
    EXPECT_THROW(comp::verifiedRewrite(program, values, "broken", broken),
                 std::runtime_error);

    // The same check passes the sound sweep over the same program: it
    // is the check, not the plumbing, that rejects the broken one.
    Program sound = comp::compileGraph(graph, values);
    EXPECT_NO_THROW(comp::verifiedRewrite(
        sound, values, "cleanup", [](Program &p) { comp::cleanup(p); }));
}

// --- Engine diagnostics ----------------------------------------------

TEST(Passes, EngineReportsPerCompilePassStats)
{
    std::mt19937 rng(9);
    Values values;
    const FactorGraph graph = chainGraph(6, values, rng);

    runtime::EngineOptions options;
    options.verifyPasses = true;
    runtime::Engine engine(hw::AcceleratorConfig::minimal(true),
                           options);
    engine.program(graph, values, 0, "chain");

    const auto log = engine.compileLog();
    ASSERT_EQ(log.size(), 1u);
    const runtime::Engine::CompileRecord &record = log[0];
    EXPECT_EQ(record.name, "chain");
    ASSERT_EQ(record.passes.size(), 4u);
    for (const PassStats &stat : record.passes)
        EXPECT_TRUE(stat.verified) << stat.pass;

    const std::string summary = record.passSummary();
    EXPECT_NE(summary.find("chain: "), std::string::npos);
    EXPECT_NE(summary.find("dedup -"), std::string::npos);
    EXPECT_NE(summary.find("fuse -"), std::string::npos);
    EXPECT_NE(summary.find(" verified"), std::string::npos);

    // The pass counters land in the process-wide metrics registry.
    const std::string json = runtime::Engine::metricsJson();
    EXPECT_NE(json.find("pass.dedup.runs"), std::string::npos);
    EXPECT_NE(json.find("pass.cse.rewrites"), std::string::npos);
}

// --- Fused opcodes through the binary encoding -----------------------

TEST(Passes, EncodingRoundTripsFusedOpcodes)
{
    std::mt19937 rng(11);
    Values values;
    const FactorGraph graph = chainGraph(8, values, rng);
    Program program = comp::compileGraph(graph, values);
    comp::optimize(program);

    const auto histogram = program.opHistogram();
    const std::size_t fused =
        histogram[static_cast<std::size_t>(IsaOp::GSCALE)] +
        histogram[static_cast<std::size_t>(IsaOp::MVSUB)];
    ASSERT_GT(fused, 0u)
        << "expected the chain graph to exercise fusion";

    const Program decoded =
        comp::decodeProgram(comp::encodeProgram(program));
    ASSERT_EQ(decoded.instructions.size(),
              program.instructions.size());
    EXPECT_EQ(decoded.opHistogram(), histogram);
    expectBitIdenticalDeltas(program, decoded, values);
}

} // namespace
