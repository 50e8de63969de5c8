#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "compiler/isa.hpp"
#include "compiler/pass.hpp"

namespace orianna::fg {
class Values;
}

namespace orianna::comp {

/** How cleanup() and optimize() check their rewrite. */
struct SweepOptions
{
    /**
     * Probe input of the equivalence check. Must bind every variable
     * the program loads. Ignored unless verify is set.
     */
    const fg::Values *probe = nullptr;
    /** Run the equivalence check around the sweep. */
    bool verify = false;
};

/**
 * The optimizing sweep over a freshly generated instruction stream
 * (DESIGN.md §7). Two fixed entry points:
 *
 *  - cleanup(): "dedup" (byte-identical LOADC payloads collapse to
 *    one on-chip constant) then "dce" (instructions whose results
 *    never reach a STORE are dropped). This builds the reference
 *    rung and the platform-model stream.
 *  - optimize(): cleanup's two analyses, then "cse" (instructions
 *    with identical opcode, operand slots and payload reuse the first
 *    occurrence's slot) and "fuse" (single-use GATHER+SCALER becomes
 *    GSCALE, MV/RV+VSUB becomes MVSUB: same FLOPs, same order, one
 *    issue). This builds the device program.
 *
 * Each call runs its analyses in order over the input's raw slots,
 * composing one drop mask and one slot remap, then rebuilds the
 * program with one rewriteProgram() call (none when no analysis
 * fired). The result equals running the analyses one after another
 * with a rewrite between each, byte for byte. Returns one PassStats
 * per analysis, in order.
 *
 * The rewritten program computes bit-identical deltas on every input
 * and executes no more MACs. With SweepOptions::verify set, that is
 * checked on the probe input around the whole sweep (see
 * verifiedRewrite()).
 *
 * The input must be well formed codegen output (every slot below
 * valueSlots); rewriteProgram() still throws std::logic_error on a
 * use of an undefined slot.
 *
 * @throws std::runtime_error when verification is on and fails.
 */
std::vector<PassStats> cleanup(Program &program,
                               const SweepOptions &options = {});
std::vector<PassStats> optimize(Program &program,
                                const SweepOptions &options = {});

/**
 * ProgramStore pipeline specs of the two sweeps. They name the
 * analyses each artifact went through, so stores written by the
 * older pass pipeline of the same name stay valid.
 */
inline constexpr const char *kCleanupSpec = "dedup,dce";
inline constexpr const char *kOptimizeSpec = "dedup,dce,cse,fuse";

/** True when ORIANNA_VERIFY_PASSES is set to a non-zero value. */
bool verifyPassesFromEnv();

/**
 * Run @p rewrite over @p program under the equivalence check: the
 * program is executed on @p probe through the reference Executor
 * before and after, and the rewrite is rejected unless every delta is
 * bit-identical and the executed MAC count did not grow.
 *
 * @throws std::runtime_error naming @p stage when the check fails.
 */
void verifiedRewrite(Program &program, const fg::Values &probe,
                     const char *stage,
                     const std::function<void(Program &)> &rewrite);

/**
 * Rebuild @p program without the instructions marked in @p drop.
 *
 * Consumes @p program (call it as `program =
 * rewriteProgram(std::move(program), ...)`) and keeps instruction
 * order; survivors are moved, never copied, into an exactly reserved
 * instruction vector. Every operand (srcs, gather placements, delta
 * bindings) is first redirected through @p slot_remap, a dense table
 * indexed by slot (a merged dst slot -> the surviving one; empty
 * means the identity). The table is applied once, so it must map
 * every slot straight to a survivor. Value slots are then renumbered
 * compactly in definition order, and deps are rebuilt from the
 * surviving producers, in O(instructions + operands + valueSlots).
 *
 * @throws std::logic_error when a surviving instruction (or delta
 *         binding) reads a slot with no surviving producer, or any
 *         slot (src, placement, dst, remap target) lies outside
 *         valueSlots; also when @p drop or a non-empty @p slot_remap
 *         does not match the program's size.
 */
Program rewriteProgram(Program program, const std::vector<bool> &drop,
                       const std::vector<std::uint32_t> &slot_remap);

} // namespace orianna::comp
