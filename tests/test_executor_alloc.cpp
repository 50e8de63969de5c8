// Steady-state allocation budget of the functional interpreter: once
// a slot arena is warm, every matrix/vector-unit op writes into its
// destination's existing buffer. This binary replaces the global
// operator new with a counting one, so it is its own executable.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "apps/benchmark_apps.hpp"
#include "compiler/executor.hpp"

namespace {

std::atomic<std::size_t> gAllocations{0};

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace orianna;

namespace {

/** Ops that must write into a warm destination without allocating. */
bool
writesInPlace(comp::IsaOp op)
{
    using comp::IsaOp;
    switch (op) {
      case IsaOp::LOADC:
      case IsaOp::LOADV:
      case IsaOp::RT:
      case IsaOp::RR:
      case IsaOp::MM:
      case IsaOp::RV:
      case IsaOp::MV:
      case IsaOp::VADD:
      case IsaOp::VSUB:
      case IsaOp::NEG:
      case IsaOp::SMUL:
      case IsaOp::SCALER:
      case IsaOp::GATHER:
      case IsaOp::GSCALE:
      case IsaOp::EXTRACT:
      case IsaOp::MVSUB:
      case IsaOp::HINGE:
      case IsaOp::HINGEJ:
      case IsaOp::NORM:
      case IsaOp::NORMJ:
      case IsaOp::HUBERW:
      case IsaOp::STORE:
        return true;
      default:
        return false; // Special-function units, QR and BSUB.
    }
}

/**
 * Re-steps every instruction of a warmed executor, expecting zero
 * allocations from in-place ops; returns the frame's total count.
 */
template <typename Executor>
std::size_t
restepAllocations(const core::Algorithm &algo, const std::string &label)
{
    Executor executor(algo.program);
    executor.run(algo.values);
    std::size_t total = 0;
    const auto &instrs = algo.program.instructions;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const std::size_t before = gAllocations.load();
        executor.step(i, algo.values);
        const std::size_t allocations = gAllocations.load() - before;
        total += allocations;
        if (writesInPlace(instrs[i].op)) {
            EXPECT_EQ(allocations, 0u)
                << label << " instruction " << i << " ("
                << comp::isaOpName(instrs[i].op) << ")";
        }
    }
    return total;
}

} // namespace

TEST(ExecutorAllocations, WarmMatrixVectorOpsDoNotAllocate)
{
    for (const comp::Precision precision :
         {comp::Precision::Fp64, comp::Precision::Fp32}) {
        std::size_t frame_total = 0;
        std::size_t instructions = 0;
        for (apps::AppKind kind : apps::allApps()) {
            apps::BenchmarkApp bench = apps::buildApp(kind, /*seed=*/7);
            bench.app.compile(precision);
            for (std::size_t a = 0; a < bench.app.size(); ++a) {
                const core::Algorithm &algo = bench.app.algorithm(a);
                const std::string label =
                    std::string(apps::appName(kind)) + "/" + algo.name;
                frame_total +=
                    precision == comp::Precision::Fp32
                        ? restepAllocations<comp::Executor32>(algo, label)
                        : restepAllocations<comp::Executor>(algo, label);
                instructions += algo.program.instructions.size();
            }
        }
        std::printf("%s: %zu allocations per warm frame over %zu "
                    "instructions\n",
                    precision == comp::Precision::Fp32 ? "fp32" : "fp64",
                    frame_total, instructions);
    }
}
