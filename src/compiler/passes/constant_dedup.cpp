#include "compiler/passes/passes.hpp"

#include <numeric>
#include <unordered_map>
#include <utility>

#include "compiler/passes/instruction_key.hpp"

namespace orianna::comp::passes {

namespace {

class ConstantDedupPass final : public Pass
{
  public:
    const char *name() const override { return "dedup"; }

    const char *
    description() const override
    {
        return "merge byte-identical LOADC constants into one slot";
    }

    std::size_t
    run(Program &program) const override
    {
        const auto &instrs = program.instructions;
        const std::size_t n = instrs.size();

        std::vector<bool> drop(n, false);
        std::vector<std::uint32_t> slot_remap(program.valueSlots);
        std::iota(slot_remap.begin(), slot_remap.end(), 0u);
        // Byte-exact payload key (shape, then every value) -> the
        // first LOADC's slot.
        std::unordered_map<std::string, std::uint32_t> seen;
        seen.reserve(n);
        KeyBuilder kb;
        std::size_t merged = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Instruction &inst = instrs[i];
            if (inst.op != IsaOp::LOADC)
                continue;
            kb.clear();
            kb.matrix(inst.constMat);
            kb.vector(inst.constVec);
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
constantDedup()
{
    return std::make_unique<ConstantDedupPass>();
}

} // namespace orianna::comp::passes
