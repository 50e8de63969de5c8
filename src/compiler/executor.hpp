#pragma once

#include <map>
#include <variant>

#include "compiler/isa.hpp"

namespace orianna::comp {

/** A value-table slot: matrix, vector, or empty. */
template <typename T>
using SlotValueT =
    std::variant<std::monostate, mat::MatrixT<T>, mat::VectorT<T>>;

using SlotValue = SlotValueT<double>;

/**
 * Reference (functional) semantics of the ORIANNA ISA.
 *
 * Executes a compiled Program against a value table, resolving LOADV
 * from the supplied Values. The accelerator simulator (src/hw) reuses
 * this interpreter for the numerics and adds the timing, energy and
 * resource models on top, so the scheduled accelerator and this
 * reference path can never diverge numerically.
 *
 * T is the datapath scalar (DESIGN.md §12): double is the bit-exact
 * reference, float the fp32 accelerator mode. In fp32 mode the
 * matrix/vector units run natively in float, while the
 * special-function units (Exp/Log/Jr, projection, SDF lookups) widen
 * to double internally and narrow the result — hardware SFUs evaluate
 * in extended precision, so the model does too. Host-side inputs
 * (Values, constant payloads) are always double and are narrowed at
 * the LOAD boundary; deltas widen back to double on the way out.
 * Only the double and float instantiations are defined (executor.cpp).
 */
template <typename T>
class ExecutorT
{
  public:
    /**
     * Binds @p program and sizes the slot arena once; the table is
     * never reallocated afterwards. A fresh executor starts with all
     * slots empty, as if reset() had been called.
     */
    explicit ExecutorT(const Program &program) : program_(&program)
    {
        slots_.resize(program.valueSlots);
    }

    /**
     * Run the whole program in order. Returns the tangent updates
     * (delta) per variable from the program's delta bindings, widened
     * to double (retraction always happens in double on the host).
     * A binding of a matrix slot reads back as deltaAt() does.
     */
    std::map<Key, Vector> run(const fg::Values &values);

    /**
     * Execute a single instruction against the value table. Public so
     * the cycle-level simulator can fire instructions in its own
     * (out-of-order) sequence.
     *
     * Matrix/vector-unit ops write their result into the destination
     * slot's existing buffer, so re-stepping a warm slot does not
     * allocate; the destination never aliases a source (slots are
     * SSA). Special-function ops, QR and BSUB build a fresh result.
     */
    void step(std::size_t index, const fg::Values &values);

    /**
     * Clear every slot back to empty (cold reset). Rarely needed
     * between frames: compiled programs write each slot before
     * reading it, so long-lived contexts keep the arena warm and
     * simply overwrite last frame's values in place.
     */
    void reset();

    /** Read back a slot (for tests and delta extraction). */
    const SlotValueT<T> &slot(std::uint32_t index) const
    {
        return slots_.at(index);
    }

    /**
     * Read back a delta slot widened to double (host readback). A
     * matrix slot comes back as one column-major vector: column c at
     * offset c * rows.
     */
    Vector deltaAt(std::uint32_t index) const;

    /**
     * Overwrite every element of @p index with quiet NaN, keeping the
     * shape. The hardware fault-injection harness (src/hw) models a
     * corrupted-output fault this way: a poisoned value propagates
     * through its consumers exactly like the upset it stands for, and
     * the runtime detects it in the deltas.
     */
    void corruptSlot(std::uint32_t index);

  private:
    const mat::MatrixT<T> &matrixAt(std::uint32_t slot) const;
    /** GATHER (and GSCALE's assembly) into @p dst, in place. */
    void gather(const Instruction &inst, SlotValueT<T> &dst);
    const mat::VectorT<T> &vectorAt(std::uint32_t slot) const;

    const Program *program_;
    std::vector<SlotValueT<T>> slots_;
};

using Executor = ExecutorT<double>;
using Executor32 = ExecutorT<float>;

extern template class ExecutorT<double>;
extern template class ExecutorT<float>;

/**
 * Convenience wrapper: one Gauss-Newton step of @p program applied to
 * @p values (run + retract). Honours the program's precision tag:
 * Fp32 programs step through the float interpreter.
 */
fg::Values applyProgramStep(const Program &program,
                            const fg::Values &values);

} // namespace orianna::comp
