#include "compiler/pass.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace orianna::comp {

Program
rewriteProgram(Program program, const std::vector<bool> &drop,
               const std::vector<std::uint32_t> &slot_remap)
{
    auto &instrs = program.instructions;
    const std::size_t n = instrs.size();
    const std::size_t slots = program.valueSlots;
    if (drop.size() != n)
        throw std::logic_error(
            "rewriteProgram: drop mask does not match the program");
    if (!slot_remap.empty() && slot_remap.size() != slots)
        throw std::logic_error(
            "rewriteProgram: remap table does not match valueSlots");

    constexpr std::uint32_t kUndefined =
        std::numeric_limits<std::uint32_t>::max();
    // new_slot[old slot] = compact slot of its surviving producer;
    // producer[compact slot] = index of the instruction defining it.
    std::vector<std::uint32_t> new_slot(slots, kUndefined);
    std::vector<std::uint32_t> producer;
    producer.reserve(slots);

    auto finalSlot = [&](std::uint32_t slot) {
        if (slot < slots && !slot_remap.empty())
            slot = slot_remap[slot];
        if (slot >= slots || new_slot[slot] == kUndefined)
            throw std::logic_error(
                "rewriteProgram: use of undefined slot");
        return new_slot[slot];
    };

    // An exact reservation: cached programs keep no slack capacity.
    std::vector<Instruction> out;
    out.reserve(n - static_cast<std::size_t>(
                        std::count(drop.begin(), drop.end(), true)));
    for (std::size_t i = 0; i < n; ++i) {
        if (drop[i])
            continue;
        Instruction &inst = instrs[i];
        inst.deps.clear();
        for (std::uint32_t &src : inst.srcs) {
            src = finalSlot(src);
            inst.deps.push_back(producer[src]);
        }
        for (GatherPlacement &p : inst.placements)
            p.src = finalSlot(p.src);
        if (inst.op == IsaOp::STORE) {
            inst.dst = inst.srcs[0];
        } else {
            if (inst.dst >= slots)
                throw std::logic_error(
                    "rewriteProgram: definition of out-of-range slot");
            const auto slot = static_cast<std::uint32_t>(producer.size());
            new_slot[inst.dst] = slot;
            inst.dst = slot;
            producer.push_back(static_cast<std::uint32_t>(out.size()));
        }
        out.push_back(std::move(inst));
    }
    instrs = std::move(out);
    program.valueSlots = producer.size();
    for (DeltaBinding &binding : program.deltas)
        binding.slot = finalSlot(binding.slot);
    return program;
}

} // namespace orianna::comp
