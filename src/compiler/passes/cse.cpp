#include "compiler/passes/passes.hpp"

#include <numeric>
#include <unordered_map>
#include <utility>

#include "compiler/passes/instruction_key.hpp"

namespace orianna::comp::passes {

namespace {

class CsePass final : public Pass
{
  public:
    const char *name() const override { return "cse"; }

    const char *
    description() const override
    {
        return "share identical op/operand/payload instructions "
               "(repeated Jacobian chains)";
    }

    std::size_t
    run(Program &program) const override
    {
        const auto &instrs = program.instructions;
        const std::size_t n = instrs.size();

        std::vector<bool> drop(n, false);
        std::vector<std::uint32_t> slot_remap(program.valueSlots);
        std::iota(slot_remap.begin(), slot_remap.end(), 0u);
        auto resolve = [&](std::uint32_t slot) {
            return slot_remap.at(slot);
        };

        // Byte-exact structural key of an instruction: opcode,
        // (remap-resolved) operand slots, output shape, and every
        // op-specific payload that feeds the numerics. Two
        // instructions with equal keys compute the same value in an
        // SSA program, because equal operand slots hold equal values
        // by induction.
        std::unordered_map<std::string, std::uint32_t> seen;
        seen.reserve(n);
        KeyBuilder kb;
        std::size_t merged = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Instruction &inst = instrs[i];
            if (inst.op == IsaOp::STORE)
                continue; // Host-visibility marker, not a value.

            // Keys use remap-resolved operands so chains of duplicate
            // instructions collapse transitively in one forward walk.
            kb.clear();
            kb.value(static_cast<std::uint8_t>(inst.op));
            kb.value(static_cast<std::uint32_t>(inst.srcs.size()));
            for (std::uint32_t src : inst.srcs)
                kb.value(resolve(src));
            kb.value(static_cast<std::uint32_t>(inst.rows));
            kb.value(static_cast<std::uint32_t>(inst.cols));
            kb.value(static_cast<std::uint32_t>(inst.depth));
            kb.value(inst.key);
            kb.value(static_cast<std::uint8_t>(inst.component));
            kb.value(inst.hingeEps);
            kb.value(inst.camera.fx);
            kb.value(inst.camera.fy);
            kb.value(inst.camera.cx);
            kb.value(inst.camera.cy);
            // SDF maps compare by identity, like the engine
            // fingerprint: one shared map object, one compiled lookup.
            kb.value(reinterpret_cast<std::uintptr_t>(inst.sdf.get()));
            kb.value(static_cast<std::uint32_t>(inst.extractRow));
            kb.value(static_cast<std::uint32_t>(inst.extractCol));
            kb.value(static_cast<std::uint8_t>(inst.extractVector));
            kb.matrix(inst.constMat);
            kb.vector(inst.constVec);
            kb.value(
                static_cast<std::uint32_t>(inst.placements.size()));
            for (const GatherPlacement &p : inst.placements) {
                kb.value(resolve(p.src));
                kb.value(static_cast<std::uint32_t>(p.rowBegin));
                kb.value(static_cast<std::uint32_t>(p.colBegin));
                kb.value(static_cast<std::uint8_t>(p.isRhs));
            }

            auto [it, inserted] = seen.try_emplace(kb.key(), inst.dst);
            if (!inserted) {
                slot_remap.at(inst.dst) = it->second;
                drop[i] = true;
                ++merged;
            }
        }
        if (merged > 0)
            program = rewriteProgram(std::move(program), drop,
                                     slot_remap);
        return merged;
    }
};

} // namespace

std::unique_ptr<Pass>
commonSubexpressionElimination()
{
    return std::make_unique<CsePass>();
}

} // namespace orianna::comp::passes
