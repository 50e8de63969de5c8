#include "compiler/incremental_codegen.hpp"

#include "compiler/builder.hpp"

namespace orianna::comp {

namespace {

/** Key spaces of the synthetic host boundary (see UpdateLayout). */
constexpr Key kInputBase = 1ull << 40;
constexpr Key kOutputBase = 1ull << 41;
constexpr Key kDeltaBase = 1ull << 42;

/** FNV-1a mixer (same scheme as the engine's graph fingerprint). */
struct Fnv
{
    std::uint64_t h = 1469598103934665603ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    }

    void
    mix(const char *s)
    {
        for (; *s; ++s) {
            h ^= static_cast<unsigned char>(*s);
            h *= 1099511628211ull;
        }
    }
};

} // namespace

UpdateLayout
updateLayout(const UpdateSpec &spec)
{
    UpdateLayout layout;
    Key next = kInputBase;
    for (const UpdateSpec::Row &row : spec.rows) {
        UpdateLayout::RowKeys keys;
        for (std::uint32_t position : row.blocks) {
            std::vector<Key> cols(spec.dofs.at(position));
            for (Key &key : cols)
                key = next++;
            keys.blockColumns.push_back(std::move(cols));
        }
        keys.rhs = next++;
        layout.inputs.push_back(std::move(keys));
    }

    next = kOutputBase;
    for (const UpdateSpec::Step &step : spec.steps) {
        UpdateLayout::StepKeys keys;
        keys.key = next++;
        for (std::uint32_t position : step.columns)
            keys.width += spec.dofs.at(position);
        ++keys.width; // The rhs column.
        keys.dv = spec.dofs.at(step.columns.front());
        keys.height = keys.dv + step.kept;
        layout.outputs.push_back(std::move(keys));
    }

    for (std::size_t p = 0; p < spec.dofs.size(); ++p)
        layout.deltaKeys.push_back(kDeltaBase + p);
    return layout;
}

std::uint64_t
updateFingerprint(const UpdateSpec &spec)
{
    Fnv f;
    f.mix("orianna-update-v2");
    f.mix(spec.dofs.size());
    for (std::uint32_t d : spec.dofs)
        f.mix(d);
    f.mix(spec.rows.size());
    for (const UpdateSpec::Row &row : spec.rows) {
        f.mix(row.dim);
        f.mix(row.blocks.size());
        for (std::uint32_t p : row.blocks)
            f.mix(p);
    }
    f.mix(spec.steps.size());
    for (const UpdateSpec::Step &step : spec.steps) {
        f.mix(step.rowRefs.size());
        for (std::uint32_t r : step.rowRefs)
            f.mix(r);
        f.mix(step.columns.size());
        for (std::uint32_t c : step.columns)
            f.mix(c);
        f.mix(step.kept);
    }
    return f.h;
}

Program
compileUpdate(const UpdateSpec &spec)
{
    const UpdateLayout layout = updateLayout(spec);
    Builder b(spec.algorithmTag);

    // ---- Phase 1: stream the input rows in, column by column (no
    // LOADC anywhere) ----
    auto load = [&](Key key, std::size_t rows) {
        Instruction inst;
        inst.op = IsaOp::LOADV;
        inst.key = key;
        inst.component = VarComponent::Whole;
        return b.emit(std::move(inst), Shape::vec(rows));
    };
    std::vector<RowSlots> rows(spec.rows.size());
    for (std::size_t r = 0; r < spec.rows.size(); ++r) {
        const UpdateSpec::Row &row = spec.rows[r];
        rows[r].dim = row.dim;
        for (std::size_t bi = 0; bi < row.blocks.size(); ++bi)
            for (Key key : layout.inputs[r].blockColumns[bi])
                rows[r].blocks.emplace_back(row.blocks[bi],
                                            load(key, row.dim));
        rows[r].rhs = load(layout.inputs[r].rhs, row.dim);
    }

    // ---- Phases 2 and 3: the shared elimination tail ----
    emitEliminationTail(b, spec, std::move(rows), layout.deltaKeys,
                        &layout.outputs);
    return b.finish(spec.name, spec.precision);
}

} // namespace orianna::comp
