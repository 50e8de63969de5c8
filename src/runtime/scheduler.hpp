#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "hw/cost_model.hpp"

namespace orianna::runtime {

/** Returned by pick() when nothing can issue this cycle. */
constexpr std::size_t kNoInstruction = static_cast<std::size_t>(-1);

/**
 * Bit set of unit kinds with at least one free instance: bit k is set
 * when a unit of kind `hw::UnitKind(k)` is free.
 */
using FreeKinds = std::uint32_t;

static_assert(hw::kUnitKindCount <= 32, "FreeKinds holds one bit per kind");

/** FreeKinds with every unit kind free. */
constexpr FreeKinds kAllKindsFree =
    static_cast<FreeKinds>((std::uint64_t{1} << hw::kUnitKindCount) - 1);

/**
 * The two issue policies of the accelerator controller (Sec. 6.3),
 * kept apart from the cycle-level simulation loop so each is
 * unit-testable without the numerics or the cost model.
 *
 * Instructions are identified by their global index in the flattened
 * (work-item-concatenated) program order; a lower index is older.
 * Protocol, driven by runtime::ExecutionContext each frame:
 *   1. reset(total) once at frame start;
 *   2. markReady(g, kind) when g's last producer completes (and at
 *      frame start for instructions without producers);
 *   3. pick(free) repeatedly at each cycle until it returns
 *      kNoInstruction, with @p free recomputed after every issue;
 *      a returned instruction is issued unconditionally;
 *   4. markCompleted(g) when an instruction retires.
 */

/**
 * Age-ordered scoreboard (ORIANNA-OoO): any data-ready instruction may
 * issue to any free unit of its kind, oldest first — fine-grained OoO
 * inside an algorithm and coarse-grained OoO across work items.
 *
 * One ready queue per unit kind, each a min-heap on the global index
 * whose storage is reused across frames. The oldest data-ready
 * instruction with a free unit is the smallest head among the kinds
 * with a free instance, so pick() costs O(kinds) instead of a scan of
 * the whole ready list.
 */
class OutOfOrderScheduler
{
  public:
    void reset(std::size_t total);
    void markReady(std::size_t g, hw::UnitKind kind);
    void markCompleted(std::size_t /*g*/) {}
    std::size_t pick(FreeKinds free);

  private:
    std::array<std::vector<std::uint32_t>, hw::kUnitKindCount> ready_;
    /** Kinds whose ready queue is non-empty (same bit layout). */
    FreeKinds nonEmpty_ = 0;
};

/**
 * Blocking sequential controller (ORIANNA-IO): the next instruction in
 * program order issues only after the previous one has *completed* —
 * no dispatch window at all.
 */
class InOrderScheduler
{
  public:
    void reset(std::size_t total);
    void markReady(std::size_t g, hw::UnitKind kind);
    void markCompleted(std::size_t g);
    std::size_t pick(FreeKinds free);

  private:
    /** Unit kind of each data-ready instruction, kNotReady otherwise. */
    std::vector<std::uint8_t> readyKind_;
    std::size_t next_ = 0;
    bool previousDone_ = true;
};

} // namespace orianna::runtime
