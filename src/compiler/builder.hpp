#pragma once

// Internal to the compiler: the program builder every code generator
// emits through, and the elimination tail — partial-QR steps (Fig. 5)
// and back-substitution (Fig. 6) — that compileGraph and
// compileUpdate share (DESIGN.md §7; defined in codegen.cpp).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "compiler/incremental_codegen.hpp"
#include "compiler/isa.hpp"

namespace orianna::comp {

/** Symbolic shape of a value slot. */
struct Shape
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    bool isVector = false;

    static Shape vec(std::size_t n) { return {n, 1, true}; }
    static Shape matrix(std::size_t r, std::size_t c)
    {
        return {r, c, false};
    }
};

/**
 * Incremental program builder: allocates value slots, tracks slot
 * shapes and producers, and derives instruction dependences from the
 * operands. Every instruction carries the current phase tag
 * (0 construction, 1 decomposition, 2 back substitution).
 */
class Builder
{
  public:
    explicit Builder(std::uint8_t algorithm) : algorithm_(algorithm) {}

    const Shape &shape(std::uint32_t slot) const { return shapes_[slot]; }

    /** Emit an instruction writing a fresh slot of @p out_shape. */
    std::uint32_t
    emit(Instruction inst, Shape out_shape, std::uint32_t factor = 0)
    {
        inst.dst = static_cast<std::uint32_t>(shapes_.size());
        shapes_.push_back(out_shape);
        inst.rows = out_shape.rows;
        inst.cols = out_shape.cols;
        inst.factor = factor;
        stamp(inst);
        producer_.push_back(
            static_cast<std::uint32_t>(program_.instructions.size()));
        const std::uint32_t dst = inst.dst;
        program_.instructions.push_back(std::move(inst));
        return dst;
    }

    /** Emit a STORE marking @p slot as a host-visible result. */
    void
    store(std::uint32_t slot)
    {
        Instruction inst;
        inst.op = IsaOp::STORE;
        inst.srcs = {slot};
        inst.dst = slot;
        inst.rows = shapes_[slot].rows;
        inst.cols = shapes_[slot].cols;
        stamp(inst);
        program_.instructions.push_back(std::move(inst));
    }

    /** Bind @p slot as the host-visible result named @p key. */
    void bind(Key key, std::uint32_t slot)
    {
        program_.deltas.push_back({key, slot});
    }

    /** Phase tag stamped on subsequently emitted instructions. */
    void setPhase(std::uint8_t phase) { phase_ = phase; }

    Program
    finish(std::string name, Precision precision)
    {
        program_.valueSlots = shapes_.size();
        program_.algorithm = algorithm_;
        program_.precision = precision;
        program_.name = std::move(name);
        return std::move(program_);
    }

  private:
    /** Algorithm and phase tags, and deps from operand producers. */
    void
    stamp(Instruction &inst) const
    {
        inst.algorithm = algorithm_;
        inst.phase = phase_;
        for (std::uint32_t src : inst.srcs)
            inst.deps.push_back(producer_[src]);
    }

    Program program_;
    std::uint8_t algorithm_;
    std::uint8_t phase_ = 0;
    std::vector<Shape> shapes_;
    std::vector<std::uint32_t> producer_; //!< Per slot.
};

/** Matrix-matrix product slot helper (records the inner depth). */
inline std::uint32_t
emitMatMul(Builder &b, IsaOp op, std::uint32_t s0, std::uint32_t s1,
           std::uint32_t factor = 0)
{
    const Shape &a = b.shape(s0);
    const Shape &c = b.shape(s1);
    Instruction inst;
    inst.op = op;
    inst.srcs = {s0, s1};
    inst.depth = a.cols;
    Shape out = c.isVector ? ((op == IsaOp::MM || op == IsaOp::RR)
                                  ? Shape::matrix(a.rows, 1)
                                  : Shape::vec(a.rows))
                           : Shape::matrix(a.rows, c.cols);
    return b.emit(std::move(inst), out, factor);
}

/**
 * On-device image of one row of [A | b]: its blocks as (position,
 * slot) pairs in schedule order, then its rhs. A block is one matrix
 * slot, or one vector slot per column when the host streams it
 * column by column (consecutive entries of the same position).
 */
struct RowSlots
{
    std::uint32_t dim = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> blocks;
    std::uint32_t rhs = 0;
};

/**
 * Lower an elimination schedule over its input @p rows: per step
 * GATHER -> QR -> conditional and carry EXTRACTs, then the shared
 * back-substitution. With @p streamed (update programs, whose host
 * keeps the R factors) each step's R block is also extracted whole,
 * stored and bound to its key. Throws std::invalid_argument on a
 * malformed schedule.
 */
void emitEliminationTail(Builder &b, const UpdateSpec &schedule,
                         std::vector<RowSlots> rows,
                         const std::vector<Key> &deltaKeys,
                         const std::vector<UpdateLayout::StepKeys>
                             *streamed = nullptr);

} // namespace orianna::comp
