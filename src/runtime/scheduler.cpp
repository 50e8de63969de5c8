#include "runtime/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <functional>

namespace orianna::runtime {

namespace {

constexpr std::uint8_t kNotReady = 0xff;

bool
kindFree(FreeKinds free, std::size_t kind)
{
    return ((free >> kind) & 1u) != 0;
}

} // namespace

void
OutOfOrderScheduler::reset(std::size_t /*total*/)
{
    for (auto &queue : ready_)
        queue.clear();
    nonEmpty_ = 0;
}

void
OutOfOrderScheduler::markReady(std::size_t g, hw::UnitKind kind)
{
    // Frame-start ready marks arrive ascending, and an ascending array
    // is already a min-heap, so push_heap does no swaps for them.
    const auto k = static_cast<std::size_t>(kind);
    auto &queue = ready_[k];
    queue.push_back(static_cast<std::uint32_t>(g));
    std::push_heap(queue.begin(), queue.end(), std::greater<>{});
    nonEmpty_ |= FreeKinds{1} << k;
}

std::size_t
OutOfOrderScheduler::pick(FreeKinds free)
{
    // Visit only the kinds that have both a free unit and a waiting
    // instruction; the oldest of their heads issues.
    FreeKinds candidates = free & nonEmpty_;
    if (candidates == 0)
        return kNoInstruction;
    std::size_t best = std::countr_zero(candidates);
    for (candidates &= candidates - 1; candidates != 0;
         candidates &= candidates - 1) {
        const std::size_t k = std::countr_zero(candidates);
        if (ready_[k].front() < ready_[best].front())
            best = k;
    }
    auto &queue = ready_[best];
    std::pop_heap(queue.begin(), queue.end(), std::greater<>{});
    const std::size_t g = queue.back();
    queue.pop_back();
    if (queue.empty())
        nonEmpty_ &= ~(FreeKinds{1} << best);
    return g;
}

void
InOrderScheduler::reset(std::size_t total)
{
    readyKind_.assign(total, kNotReady);
    next_ = 0;
    previousDone_ = true;
}

void
InOrderScheduler::markReady(std::size_t g, hw::UnitKind kind)
{
    readyKind_[g] = static_cast<std::uint8_t>(kind);
}

void
InOrderScheduler::markCompleted(std::size_t g)
{
    if (g + 1 == next_)
        previousDone_ = true;
}

std::size_t
InOrderScheduler::pick(FreeKinds free)
{
    if (next_ >= readyKind_.size() || !previousDone_)
        return kNoInstruction;
    const std::uint8_t kind = readyKind_[next_];
    if (kind == kNotReady || !kindFree(free, kind))
        return kNoInstruction;
    previousDone_ = false;
    return next_++;
}

} // namespace orianna::runtime
