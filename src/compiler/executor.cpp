#include "compiler/executor.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "lie/so.hpp"
#include "matrix/qr.hpp"

namespace orianna::comp {

namespace {

/**
 * Widen/narrow shims around the extended-precision special-function
 * units (lie::, camera projection, SDF lookups) and the host
 * boundary (LOADC/LOADV payloads in, deltas out). For T = double both
 * directions are the identity, so the fp64 interpreter compiles to
 * the exact pre-template code.
 */
template <typename T> struct Ext;

template <> struct Ext<double>
{
    static const Vector &in(const Vector &v) { return v; }
    static const Matrix &in(const Matrix &m) { return m; }
    static Vector out(Vector v) { return v; }
    static Matrix out(Matrix m) { return m; }
    static void load(const Vector &v, Vector &dst) { dst = v; }
    static void load(const Matrix &m, Matrix &dst) { dst = m; }
};

template <> struct Ext<float>
{
    static Vector in(const mat::VectorF &v) { return mat::toDouble(v); }
    static Matrix in(const mat::MatrixF &m) { return mat::toDouble(m); }
    static mat::VectorF out(const Vector &v) { return mat::toFloat(v); }
    static mat::MatrixF out(const Matrix &m) { return mat::toFloat(m); }
    static void load(const Vector &v, mat::VectorF &dst)
    {
        mat::toFloat(v, dst);
    }
    static void load(const Matrix &m, mat::MatrixF &dst)
    {
        mat::toFloat(m, dst);
    }
};

/**
 * The destination slot as a matrix (vector), keeping the buffer it
 * already holds so a warm slot is overwritten in place. Its entries
 * are stale: the caller writes every one, zero-filling first where
 * the op leaves entries unset.
 */
template <typename T>
mat::MatrixT<T> &
matrixSlot(SlotValueT<T> &slot)
{
    if (auto *m = std::get_if<mat::MatrixT<T>>(&slot))
        return *m;
    return slot.template emplace<mat::MatrixT<T>>();
}

template <typename T>
mat::VectorT<T> &
vectorSlot(SlotValueT<T> &slot)
{
    if (auto *v = std::get_if<mat::VectorT<T>>(&slot))
        return *v;
    return slot.template emplace<mat::VectorT<T>>();
}

Vector
project(const Vector &p, const fg::CameraModel &c)
{
    if (p.size() != 3)
        throw std::invalid_argument("PROJ: point must be 3-D");
    if (p[2] <= 1e-9)
        throw std::runtime_error("PROJ: point behind camera");
    return Vector{c.fx * p[0] / p[2] + c.cx, c.fy * p[1] / p[2] + c.cy};
}

Matrix
projectJacobian(const Vector &p, const fg::CameraModel &c)
{
    if (p.size() != 3)
        throw std::invalid_argument("PROJJ: point must be 3-D");
    const double iz = 1.0 / p[2];
    Matrix j(2, 3);
    j(0, 0) = c.fx * iz;
    j(0, 2) = -c.fx * p[0] * iz * iz;
    j(1, 1) = c.fy * iz;
    j(1, 2) = -c.fy * p[1] * iz * iz;
    return j;
}

/** Row-scale by 1/sigma (whitening), in place. */
template <typename T>
void
scaleRows(mat::MatrixT<T> &m, const Vector &sigmas)
{
    if (sigmas.size() != m.rows())
        throw std::invalid_argument("SCALER: one sigma per row");
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            m(i, j) /= T(sigmas[i]);
}

template <typename T>
void
scaleRows(mat::VectorT<T> &v, const Vector &sigmas)
{
    if (sigmas.size() != v.size())
        throw std::invalid_argument("SCALER: one sigma per row");
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] /= T(sigmas[i]);
}

} // namespace

template <typename T>
void
ExecutorT<T>::reset()
{
    slots_.assign(program_->valueSlots, std::monostate{});
}

template <typename T>
void
ExecutorT<T>::corruptSlot(std::uint32_t index)
{
    const T nan = std::numeric_limits<T>::quiet_NaN();
    SlotValueT<T> &slot = slots_.at(index);
    if (std::holds_alternative<mat::MatrixT<T>>(slot)) {
        mat::MatrixT<T> &m = std::get<mat::MatrixT<T>>(slot);
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                m(i, j) = nan;
    } else if (std::holds_alternative<mat::VectorT<T>>(slot)) {
        mat::VectorT<T> &v = std::get<mat::VectorT<T>>(slot);
        for (std::size_t i = 0; i < v.size(); ++i)
            v[i] = nan;
    }
}

template <typename T>
const mat::MatrixT<T> &
ExecutorT<T>::matrixAt(std::uint32_t slot) const
{
    if (!std::holds_alternative<mat::MatrixT<T>>(slots_[slot]))
        throw std::logic_error("Executor: slot is not a matrix");
    return std::get<mat::MatrixT<T>>(slots_[slot]);
}

template <typename T>
const mat::VectorT<T> &
ExecutorT<T>::vectorAt(std::uint32_t slot) const
{
    if (!std::holds_alternative<mat::VectorT<T>>(slots_[slot]))
        throw std::logic_error("Executor: slot is not a vector");
    return std::get<mat::VectorT<T>>(slots_[slot]);
}

template <typename T>
void
ExecutorT<T>::step(std::size_t index, const fg::Values &values)
{
    const Instruction &inst = program_->instructions[index];
    auto &dst = slots_[inst.dst];

    auto isVec = [&](std::uint32_t s) {
        return std::holds_alternative<mat::VectorT<T>>(slots_[s]);
    };

    switch (inst.op) {
      case IsaOp::LOADC:
        if (inst.constVec.size() > 0)
            Ext<T>::load(inst.constVec, vectorSlot(dst));
        else
            Ext<T>::load(inst.constMat, matrixSlot(dst));
        break;
      case IsaOp::LOADV:
        switch (inst.component) {
          case VarComponent::Phi:
            Ext<T>::load(values.pose(inst.key).phi(), vectorSlot(dst));
            break;
          case VarComponent::Translation:
            Ext<T>::load(values.pose(inst.key).t(), vectorSlot(dst));
            break;
          case VarComponent::Whole:
            Ext<T>::load(values.vector(inst.key), vectorSlot(dst));
            break;
        }
        break;
      case IsaOp::EXP:
        dst = Ext<T>::out(lie::expSo(Ext<T>::in(vectorAt(inst.srcs[0]))));
        break;
      case IsaOp::LOG:
        dst = Ext<T>::out(lie::logSo(Ext<T>::in(matrixAt(inst.srcs[0]))));
        break;
      case IsaOp::RT:
        matrixAt(inst.srcs[0]).transposeInto(matrixSlot(dst));
        break;
      case IsaOp::RR:
      case IsaOp::MM: {
        const mat::MatrixT<T> &a = matrixAt(inst.srcs[0]);
        if (isVec(inst.srcs[1])) {
            // Vector operand treated as a column matrix.
            a.multiplyColumnInto(vectorAt(inst.srcs[1]), matrixSlot(dst));
        } else {
            a.multiplyInto(matrixAt(inst.srcs[1]), matrixSlot(dst));
        }
        break;
      }
      case IsaOp::RV:
      case IsaOp::MV:
        matrixAt(inst.srcs[0]).multiplyInto(vectorAt(inst.srcs[1]),
                                            vectorSlot(dst));
        break;
      case IsaOp::VADD:
        if (isVec(inst.srcs[0]))
            vectorAt(inst.srcs[0]).addInto(vectorAt(inst.srcs[1]),
                                           vectorSlot(dst));
        else
            matrixAt(inst.srcs[0]).addInto(matrixAt(inst.srcs[1]),
                                           matrixSlot(dst));
        break;
      case IsaOp::VSUB:
        if (isVec(inst.srcs[0]))
            vectorAt(inst.srcs[0]).subtractInto(vectorAt(inst.srcs[1]),
                                                vectorSlot(dst));
        else
            matrixAt(inst.srcs[0]).subtractInto(matrixAt(inst.srcs[1]),
                                                matrixSlot(dst));
        break;
      case IsaOp::NEG:
        if (isVec(inst.srcs[0]))
            vectorAt(inst.srcs[0]).negateInto(vectorSlot(dst));
        else
            matrixAt(inst.srcs[0]).negateInto(matrixSlot(dst));
        break;
      case IsaOp::HAT:
        dst = Ext<T>::out(lie::hat(Ext<T>::in(vectorAt(inst.srcs[0]))));
        break;
      case IsaOp::JR:
        dst = Ext<T>::out(
            lie::rightJacobian(Ext<T>::in(vectorAt(inst.srcs[0]))));
        break;
      case IsaOp::JRINV:
        dst = Ext<T>::out(
            lie::rightJacobianInv(Ext<T>::in(vectorAt(inst.srcs[0]))));
        break;
      case IsaOp::PROJ:
        dst = Ext<T>::out(
            project(Ext<T>::in(vectorAt(inst.srcs[0])), inst.camera));
        break;
      case IsaOp::PROJJ:
        dst = Ext<T>::out(projectJacobian(
            Ext<T>::in(vectorAt(inst.srcs[0])), inst.camera));
        break;
      case IsaOp::SDF:
        dst = Ext<T>::out(Vector{
            inst.sdf->distance(Ext<T>::in(vectorAt(inst.srcs[0])))});
        break;
      case IsaOp::SDFJ: {
        const Vector g =
            inst.sdf->gradient(Ext<T>::in(vectorAt(inst.srcs[0])));
        Matrix j(1, g.size());
        for (std::size_t i = 0; i < g.size(); ++i)
            j(0, i) = g[i];
        dst = Ext<T>::out(std::move(j));
        break;
      }
      case IsaOp::HINGE: {
        // Elementwise hinge max(0, eps - x).
        const mat::VectorT<T> &v = vectorAt(inst.srcs[0]);
        mat::VectorT<T> &out = vectorSlot(dst);
        out.resize(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
            out[i] = std::max(T(0), T(inst.hingeEps) - v[i]);
        break;
      }
      case IsaOp::HINGEJ: {
        const mat::VectorT<T> &v = vectorAt(inst.srcs[0]);
        mat::MatrixT<T> &j = matrixSlot(dst);
        j.resize(v.size(), v.size());
        j.fill(T(0));
        for (std::size_t i = 0; i < v.size(); ++i)
            j(i, i) = (v[i] < T(inst.hingeEps)) ? T(-1) : T(0);
        break;
      }
      case IsaOp::NORM: {
        const T norm = vectorAt(inst.srcs[0]).norm();
        mat::VectorT<T> &out = vectorSlot(dst);
        out.resize(1);
        out[0] = norm;
        break;
      }
      case IsaOp::HUBERW: {
        const T norm = vectorAt(inst.srcs[0]).norm();
        const T k = T(inst.hingeEps);
        mat::VectorT<T> &out = vectorSlot(dst);
        out.resize(1);
        out[0] = (k <= T(0) || norm <= k) ? T(1) : std::sqrt(k / norm);
        break;
      }
      case IsaOp::SMUL: {
        const mat::VectorT<T> &weight = vectorAt(inst.srcs[1]);
        if (weight.size() != 1)
            throw std::invalid_argument("SMUL: scale is not a scalar");
        const T scale = weight[0];
        if (isVec(inst.srcs[0]))
            vectorAt(inst.srcs[0]).scaleInto(scale, vectorSlot(dst));
        else
            matrixAt(inst.srcs[0]).scaleInto(scale, matrixSlot(dst));
        break;
      }
      case IsaOp::NORMJ: {
        const mat::VectorT<T> &v = vectorAt(inst.srcs[0]);
        const T n = v.norm();
        mat::MatrixT<T> &j = matrixSlot(dst);
        j.resize(1, v.size());
        j.fill(T(0));
        if (n > T(1e-12))
            for (std::size_t i = 0; i < v.size(); ++i)
                j(0, i) = v[i] / n;
        break;
      }
      case IsaOp::SCALER:
        if (isVec(inst.srcs[0])) {
            mat::VectorT<T> &out = vectorSlot(dst);
            out = vectorAt(inst.srcs[0]);
            scaleRows(out, inst.constVec);
        } else {
            mat::MatrixT<T> &out = matrixSlot(dst);
            out = matrixAt(inst.srcs[0]);
            scaleRows(out, inst.constVec);
        }
        break;
      case IsaOp::GATHER:
        gather(inst, dst);
        break;
      case IsaOp::QR: {
        // Givens-array template on the augmented [A | b]: the last
        // column is the rhs and is carried through the rotations.
        const mat::MatrixT<T> &aug = matrixAt(inst.srcs[0]);
        const std::size_t n = aug.cols() - 1;
        mat::MatrixT<T> a = aug.block(0, 0, aug.rows(), n);
        mat::VectorT<T> rhs = aug.col(n);
        mat::QrResultT<T> qr = mat::givensQr(a, rhs);
        mat::MatrixT<T> out(aug.rows(), aug.cols());
        out.setBlock(0, 0, qr.r);
        for (std::size_t i = 0; i < rhs.size(); ++i)
            out(i, n) = qr.rhs[i];
        dst = std::move(out);
        break;
      }
      case IsaOp::EXTRACT: {
        const mat::MatrixT<T> &src = matrixAt(inst.srcs[0]);
        if (inst.extractVector) {
            if (inst.extractRow + inst.rows > src.rows() ||
                inst.extractCol >= src.cols())
                throw std::out_of_range("EXTRACT: column out of range");
            mat::VectorT<T> &out = vectorSlot(dst);
            out.resize(inst.rows);
            for (std::size_t i = 0; i < inst.rows; ++i)
                out[i] = src(inst.extractRow + i, inst.extractCol);
        } else {
            src.blockInto(inst.extractRow, inst.extractCol, inst.rows,
                          inst.cols, matrixSlot(dst));
        }
        break;
      }
      case IsaOp::BSUB:
        dst = mat::backSubstitute(matrixAt(inst.srcs[0]),
                                  vectorAt(inst.srcs[1]));
        break;
      case IsaOp::STORE:
        break; // Host-visibility marker; no data change.
      case IsaOp::GSCALE:
        // Fused GATHER + SCALER: assemble exactly like GATHER, then
        // whiten rows exactly like SCALER — same FLOPs, same order,
        // so fusion stays bit-identical.
        gather(inst, dst);
        if (auto *v = std::get_if<mat::VectorT<T>>(&dst))
            scaleRows(*v, inst.constVec);
        else
            scaleRows(std::get<mat::MatrixT<T>>(dst), inst.constVec);
        break;
      case IsaOp::MVSUB: {
        // Fused MV + VSUB: dst = src0 - src1 * src2, evaluated as the
        // unfused pair would (gemv first, then the subtraction).
        mat::VectorT<T> &out = vectorSlot(dst);
        matrixAt(inst.srcs[1]).multiplyInto(vectorAt(inst.srcs[2]), out);
        vectorAt(inst.srcs[0]).subtractInto(out, out);
        break;
      }
    }
}

template <typename T>
void
ExecutorT<T>::gather(const Instruction &inst, SlotValueT<T> &dst)
{
    // All-rhs placements at column zero assemble a vector; otherwise
    // a dense matrix is built from the placements. Entries no
    // placement covers are zero. The output spans the placements'
    // rows and at most three columns past them (a pose Jacobian
    // whose factor leaves the translation unplaced).
    bool vector_gather = !inst.placements.empty();
    std::size_t rows = 0, cols = 0;
    for (const GatherPlacement &p : inst.placements) {
        vector_gather = vector_gather && p.isRhs && p.colBegin == 0;
        rows = std::max(rows, p.rowBegin + (p.isRhs
                                                ? vectorAt(p.src).size()
                                                : matrixAt(p.src).rows()));
        cols = std::max(cols, p.colBegin + (p.isRhs
                                                ? 1
                                                : matrixAt(p.src).cols()));
    }
    if (inst.rows > rows || inst.cols > cols + 3)
        throw std::length_error("GATHER: shape exceeds its placements");
    if (vector_gather) {
        mat::VectorT<T> &out = vectorSlot(dst);
        out.resize(inst.rows);
        out.fill(T(0));
        for (const GatherPlacement &p : inst.placements)
            out.setSegment(p.rowBegin, vectorAt(p.src));
        return;
    }
    mat::MatrixT<T> &out = matrixSlot(dst);
    out.resize(inst.rows, inst.cols);
    out.fill(T(0));
    for (const GatherPlacement &p : inst.placements) {
        if (p.isRhs) {
            const mat::VectorT<T> &v = vectorAt(p.src);
            if (p.rowBegin + v.size() > inst.rows || p.colBegin >= inst.cols)
                throw std::out_of_range("GATHER: placement out of range");
            for (std::size_t i = 0; i < v.size(); ++i)
                out(p.rowBegin + i, p.colBegin) = v[i];
        } else {
            out.setBlock(p.rowBegin, p.colBegin, matrixAt(p.src));
        }
    }
}

template <typename T>
Vector
ExecutorT<T>::deltaAt(std::uint32_t index) const
{
    const auto *block = std::get_if<mat::MatrixT<T>>(&slots_.at(index));
    if (block == nullptr)
        return Ext<T>::in(vectorAt(index));
    const std::size_t rows = block->rows();
    Vector out(rows * block->cols());
    for (std::size_t c = 0; c < block->cols(); ++c)
        for (std::size_t i = 0; i < rows; ++i)
            out[c * rows + i] = static_cast<double>((*block)(i, c));
    return out;
}

template <typename T>
std::map<Key, Vector>
ExecutorT<T>::run(const fg::Values &values)
{
    reset();
    for (std::size_t i = 0; i < program_->instructions.size(); ++i)
        step(i, values);

    std::map<Key, Vector> deltas;
    for (const DeltaBinding &binding : program_->deltas)
        deltas.emplace(binding.key, deltaAt(binding.slot));
    return deltas;
}

// The two supported datapath precisions (DESIGN.md §12).
template class ExecutorT<double>;
template class ExecutorT<float>;

fg::Values
applyProgramStep(const Program &program, const fg::Values &values)
{
    std::map<Key, Vector> deltas;
    if (program.precision == Precision::Fp32) {
        Executor32 executor(program);
        deltas = executor.run(values);
    } else {
        Executor executor(program);
        deltas = executor.run(values);
    }
    fg::Values updated = values;
    updated.retractAll(deltas);
    return updated;
}

} // namespace orianna::comp
