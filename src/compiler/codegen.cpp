#include "compiler/codegen.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "compiler/builder.hpp"
#include "fg/dfg.hpp"
#include "lie/so.hpp"

namespace orianna::comp {

namespace {

using fg::Dfg;
using fg::DfgNode;
using fg::Op;

/** Per-(key, component) LOADV cache so variables stream in once. */
struct VarSlots
{
    std::map<std::pair<Key, int>, std::uint32_t> slots;

    std::uint32_t
    load(Builder &b, const fg::Values &values, Key key, VarComponent comp)
    {
        const auto cache_key = std::make_pair(key, static_cast<int>(comp));
        auto it = slots.find(cache_key);
        if (it != slots.end())
            return it->second;

        Instruction inst;
        inst.op = IsaOp::LOADV;
        inst.key = key;
        inst.component = comp;
        Shape shape = Shape::vec(0);
        switch (comp) {
          case VarComponent::Phi:
            shape = Shape::vec(values.pose(key).phi().size());
            break;
          case VarComponent::Translation:
            shape = Shape::vec(values.pose(key).t().size());
            break;
          case VarComponent::Whole:
            shape = Shape::vec(values.vector(key).size());
            break;
        }
        const std::uint32_t slot = b.emit(std::move(inst), shape);
        slots.emplace(cache_key, slot);
        return slot;
    }
};

/** State of one factor's DFG lowering. */
struct FactorLowering
{
    std::vector<std::uint32_t> nodeSlot; //!< Forward value slots.
    std::vector<std::uint32_t> gradSlot; //!< Backward accumulators.
    std::vector<bool> hasGrad;
};

std::uint32_t
loadConstMatrix(Builder &b, Matrix m)
{
    Instruction inst;
    inst.op = IsaOp::LOADC;
    const Shape shape = Shape::matrix(m.rows(), m.cols());
    inst.constMat = std::move(m);
    return b.emit(std::move(inst), shape);
}

std::uint32_t
loadConstVector(Builder &b, Vector v)
{
    Instruction inst;
    inst.op = IsaOp::LOADC;
    const Shape shape = Shape::vec(v.size());
    inst.constVec = std::move(v);
    return b.emit(std::move(inst), shape);
}

std::uint32_t
emitUnary(Builder &b, IsaOp op, std::uint32_t src, Shape out,
          std::uint32_t factor = 0)
{
    Instruction inst;
    inst.op = op;
    inst.srcs = {src};
    return b.emit(std::move(inst), out, factor);
}

std::uint32_t
emitBinary(Builder &b, IsaOp op, std::uint32_t s0, std::uint32_t s1,
           Shape out, std::uint32_t factor = 0)
{
    Instruction inst;
    inst.op = op;
    inst.srcs = {s0, s1};
    return b.emit(std::move(inst), out, factor);
}

/**
 * Forward lowering of one factor DFG: one instruction per node, in
 * construction (topological) order.
 */
void
lowerForward(Builder &b, VarSlots &vars, const fg::Values &values,
             const fg::Factor &factor, std::uint32_t fi,
             FactorLowering &state)
{
    const Dfg &dfg = factor.dfg();
    const auto &nodes = dfg.nodes();
    state.nodeSlot.assign(nodes.size(), 0);

    for (std::size_t id = 0; id < nodes.size(); ++id) {
        const DfgNode &node = nodes[id];
        auto in = [&](std::size_t slot_index) {
            return state.nodeSlot[node.inputs[slot_index]];
        };
        switch (node.op) {
          case Op::InputRot: {
            const std::uint32_t phi =
                vars.load(b, values, node.key, VarComponent::Phi);
            const std::size_t n = values.pose(node.key).spaceDim();
            state.nodeSlot[id] =
                emitUnary(b, IsaOp::EXP, phi, Shape::matrix(n, n), fi);
            break;
          }
          case Op::InputTrans:
            state.nodeSlot[id] = vars.load(b, values, node.key,
                                           VarComponent::Translation);
            break;
          case Op::InputVec:
            state.nodeSlot[id] =
                vars.load(b, values, node.key, VarComponent::Whole);
            break;
          case Op::ConstRot:
            state.nodeSlot[id] = loadConstMatrix(b, node.constMat);
            break;
          case Op::ConstVec:
            state.nodeSlot[id] = loadConstVector(b, node.constVec);
            break;
          case Op::Exp: {
            const std::size_t n =
                lie::spaceDimFromTangent(b.shape(in(0)).rows);
            state.nodeSlot[id] =
                emitUnary(b, IsaOp::EXP, in(0), Shape::matrix(n, n), fi);
            break;
          }
          case Op::Log: {
            const std::size_t tdim = lie::tangentDim(b.shape(in(0)).rows);
            state.nodeSlot[id] =
                emitUnary(b, IsaOp::LOG, in(0), Shape::vec(tdim), fi);
            break;
          }
          case Op::RT: {
            const Shape &s = b.shape(in(0));
            state.nodeSlot[id] = emitUnary(
                b, IsaOp::RT, in(0), Shape::matrix(s.cols, s.rows), fi);
            break;
          }
          case Op::RR:
            state.nodeSlot[id] =
                emitMatMul(b, IsaOp::RR, in(0), in(1), fi);
            break;
          case Op::RV:
            state.nodeSlot[id] =
                emitMatMul(b, IsaOp::RV, in(0), in(1), fi);
            break;
          case Op::VAdd:
            state.nodeSlot[id] = emitBinary(b, IsaOp::VADD, in(0), in(1),
                                            b.shape(in(0)), fi);
            break;
          case Op::VSub:
            state.nodeSlot[id] = emitBinary(b, IsaOp::VSUB, in(0), in(1),
                                            b.shape(in(0)), fi);
            break;
          case Op::MV: {
            const std::uint32_t coeff = loadConstMatrix(b, node.constMat);
            state.nodeSlot[id] =
                emitMatMul(b, IsaOp::MV, coeff, in(0), fi);
            break;
          }
          case Op::Proj: {
            Instruction inst;
            inst.op = IsaOp::PROJ;
            inst.srcs = {in(0)};
            inst.camera = node.camera;
            state.nodeSlot[id] =
                b.emit(std::move(inst), Shape::vec(2), fi);
            break;
          }
          case Op::Sdf: {
            Instruction inst;
            inst.op = IsaOp::SDF;
            inst.srcs = {in(0)};
            inst.sdf = node.sdf;
            state.nodeSlot[id] =
                b.emit(std::move(inst), Shape::vec(1), fi);
            break;
          }
          case Op::Hinge: {
            Instruction inst;
            inst.op = IsaOp::HINGE;
            inst.srcs = {in(0)};
            inst.hingeEps = node.hingeEps;
            state.nodeSlot[id] =
                b.emit(std::move(inst), b.shape(in(0)), fi);
            break;
          }
          case Op::Norm:
            state.nodeSlot[id] =
                emitUnary(b, IsaOp::NORM, in(0), Shape::vec(1), fi);
            break;
        }
    }
}

/**
 * Backward lowering: reverse-mode chain rule, emitting the derivative
 * instructions of Sec. 5.2. Mirrors fg::evalBackward exactly, but at
 * the instruction level.
 */
void
lowerBackward(Builder &b, const fg::Values &values,
              const fg::Factor &factor, std::uint32_t fi,
              FactorLowering &state,
              std::map<Key, std::uint32_t> &jacobian_slots)
{
    const Dfg &dfg = factor.dfg();
    const auto &nodes = dfg.nodes();
    const std::size_t error_dim = factor.dim();

    state.gradSlot.assign(nodes.size(), 0);
    state.hasGrad.assign(nodes.size(), false);

    auto accumulate = [&](std::uint32_t node_id, std::uint32_t slot) {
        if (!state.hasGrad[node_id]) {
            state.gradSlot[node_id] = slot;
            state.hasGrad[node_id] = true;
        } else {
            state.gradSlot[node_id] =
                emitBinary(b, IsaOp::VADD, state.gradSlot[node_id], slot,
                           b.shape(slot), fi);
        }
    };

    // Seed each output with its identity block.
    std::size_t row = 0;
    for (fg::NodeId out : dfg.outputs()) {
        const std::size_t dim = b.shape(state.nodeSlot[out]).rows;
        Matrix seed(error_dim, dim);
        seed.setBlock(row, 0, Matrix::identity(dim));
        accumulate(out, loadConstMatrix(b, std::move(seed)));
        row += dim;
    }

    // Per-(key, component) accumulated Jacobian slots.
    std::map<std::pair<Key, int>, std::uint32_t> var_grad;
    auto accumulateVar = [&](Key key, VarComponent comp,
                             std::uint32_t slot) {
        const auto cache_key = std::make_pair(key, static_cast<int>(comp));
        auto it = var_grad.find(cache_key);
        if (it == var_grad.end())
            var_grad.emplace(cache_key, slot);
        else
            it->second = emitBinary(b, IsaOp::VADD, it->second, slot,
                                    b.shape(slot), fi);
    };

    for (std::size_t idx = nodes.size(); idx-- > 0;) {
        const auto id = static_cast<std::uint32_t>(idx);
        const DfgNode &node = nodes[id];
        if (!state.hasGrad[id])
            continue;
        const std::uint32_t g = state.gradSlot[id];
        auto inSlot = [&](std::size_t i) {
            return state.nodeSlot[node.inputs[i]];
        };
        auto inId = [&](std::size_t i) { return node.inputs[i]; };

        switch (node.op) {
          case Op::InputRot:
            accumulateVar(node.key, VarComponent::Phi, g);
            break;
          case Op::InputTrans:
            accumulateVar(node.key, VarComponent::Translation, g);
            break;
          case Op::InputVec:
            accumulateVar(node.key, VarComponent::Whole, g);
            break;
          case Op::ConstRot:
          case Op::ConstVec:
            break;
          case Op::Exp: {
            const std::size_t tdim = b.shape(inSlot(0)).rows;
            const std::uint32_t j =
                emitUnary(b, IsaOp::JR, inSlot(0),
                          Shape::matrix(tdim, tdim), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Log: {
            const std::size_t tdim = b.shape(state.nodeSlot[id]).rows;
            const std::uint32_t j =
                emitUnary(b, IsaOp::JRINV, state.nodeSlot[id],
                          Shape::matrix(tdim, tdim), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::RT: {
            const Shape &a = b.shape(inSlot(0));
            if (a.rows == 3) {
                const std::uint32_t prod =
                    emitMatMul(b, IsaOp::MM, g, inSlot(0), fi);
                accumulate(inId(0), emitUnary(b, IsaOp::NEG, prod,
                                              b.shape(prod), fi));
            } else {
                accumulate(inId(0),
                           emitUnary(b, IsaOp::NEG, g, b.shape(g), fi));
            }
            break;
          }
          case Op::RR: {
            const Shape &bshape = b.shape(inSlot(1));
            if (bshape.rows == 3) {
                const std::uint32_t bt =
                    emitUnary(b, IsaOp::RT, inSlot(1),
                              Shape::matrix(3, 3), fi);
                accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, bt, fi));
            } else {
                accumulate(inId(0), g);
            }
            accumulate(inId(1), g);
            break;
          }
          case Op::RV: {
            // Copy, not reference: the emit below grows the slot
            // table and would invalidate a reference into it.
            const std::size_t r_rows = b.shape(inSlot(0)).rows;
            accumulate(inId(1), emitMatMul(b, IsaOp::MM, g, inSlot(0),
                                           fi));
            if (r_rows == 3) {
                const std::uint32_t h =
                    emitUnary(b, IsaOp::HAT, inSlot(1),
                              Shape::matrix(3, 3), fi);
                const std::uint32_t rh =
                    emitMatMul(b, IsaOp::MM, inSlot(0), h, fi);
                const std::uint32_t prod =
                    emitMatMul(b, IsaOp::MM, g, rh, fi);
                accumulate(inId(0), emitUnary(b, IsaOp::NEG, prod,
                                              b.shape(prod), fi));
            } else {
                // 2-D: column R S v, with S the planar generator.
                const std::uint32_t s = loadConstMatrix(
                    b, Matrix{{0.0, -1.0}, {1.0, 0.0}});
                const std::uint32_t sv =
                    emitMatMul(b, IsaOp::MV, s, inSlot(1), fi);
                const std::uint32_t col =
                    emitMatMul(b, IsaOp::RV, inSlot(0), sv, fi);
                // g (rows x 2) times column (2 x 1).
                const std::uint32_t prod =
                    emitMatMul(b, IsaOp::MM, g, col, fi);
                accumulate(inId(0), prod);
            }
            break;
          }
          case Op::VAdd:
            accumulate(inId(0), g);
            accumulate(inId(1), g);
            break;
          case Op::VSub:
            accumulate(inId(0), g);
            accumulate(inId(1),
                       emitUnary(b, IsaOp::NEG, g, b.shape(g), fi));
            break;
          case Op::MV: {
            const std::uint32_t coeff = loadConstMatrix(b, node.constMat);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, coeff, fi));
            break;
          }
          case Op::Proj: {
            Instruction inst;
            inst.op = IsaOp::PROJJ;
            inst.srcs = {inSlot(0)};
            inst.camera = node.camera;
            const std::uint32_t j =
                b.emit(std::move(inst), Shape::matrix(2, 3), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Sdf: {
            Instruction inst;
            inst.op = IsaOp::SDFJ;
            inst.srcs = {inSlot(0)};
            inst.sdf = node.sdf;
            const std::uint32_t j = b.emit(
                std::move(inst),
                Shape::matrix(1, b.shape(inSlot(0)).rows), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Hinge: {
            Instruction inst;
            inst.op = IsaOp::HINGEJ;
            inst.srcs = {inSlot(0)};
            inst.hingeEps = node.hingeEps;
            const std::size_t n = b.shape(inSlot(0)).rows;
            const std::uint32_t j =
                b.emit(std::move(inst), Shape::matrix(n, n), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
          case Op::Norm: {
            const std::size_t n = b.shape(inSlot(0)).rows;
            const std::uint32_t j =
                emitUnary(b, IsaOp::NORMJ, inSlot(0),
                          Shape::matrix(1, n), fi);
            accumulate(inId(0), emitMatMul(b, IsaOp::MM, g, j, fi));
            break;
          }
        }
    }

    // Assemble per-key Jacobian blocks: poses combine [dphi | dt].
    for (Key key : factor.keys()) {
        const bool is_pose = values.isPose(key);
        if (!is_pose) {
            auto it = var_grad.find(
                {key, static_cast<int>(VarComponent::Whole)});
            if (it == var_grad.end())
                throw std::logic_error("codegen: missing vector grad");
            jacobian_slots[key] = it->second;
            continue;
        }
        const std::size_t tdim =
            lie::tangentDim(values.pose(key).spaceDim());
        const std::size_t n = values.pose(key).spaceDim();
        auto phi_it =
            var_grad.find({key, static_cast<int>(VarComponent::Phi)});
        auto t_it = var_grad.find(
            {key, static_cast<int>(VarComponent::Translation)});

        Instruction inst;
        inst.op = IsaOp::GATHER;
        if (phi_it != var_grad.end()) {
            inst.srcs.push_back(phi_it->second);
            inst.placements.push_back({phi_it->second, 0, 0, false});
        }
        if (t_it != var_grad.end()) {
            inst.srcs.push_back(t_it->second);
            inst.placements.push_back({t_it->second, 0, tdim, false});
        }
        if (inst.srcs.empty())
            throw std::logic_error("codegen: missing pose grad");
        jacobian_slots[key] = b.emit(
            std::move(inst), Shape::matrix(error_dim, tdim + n), fi);
    }
}

/** Whitening: scale rows of a slot by 1/sigma. */
std::uint32_t
emitWhiten(Builder &b, std::uint32_t slot, const Vector &sigmas,
           std::uint32_t fi)
{
    Instruction inst;
    inst.op = IsaOp::SCALER;
    inst.srcs = {slot};
    inst.constVec = sigmas;
    return b.emit(std::move(inst), b.shape(slot), fi);
}

/**
 * Elimination position and dof of every ordered key. Rejects a key
 * without a value or ordered twice, and (through at()) a factor key
 * the ordering omits.
 */
struct Positions
{
    const std::vector<Key> &ordering;
    const char *who;
    std::map<Key, std::uint32_t> of;
    std::vector<std::uint32_t> dofs;

    Positions(const std::vector<Key> &keys, const fg::Values &values,
              const char *compiler)
        : ordering(keys), who(compiler)
    {
        for (Key key : ordering) {
            if (!values.exists(key) || !of.emplace(key, dofs.size()).second)
                fail(key, " has no value or is ordered twice");
            dofs.push_back(static_cast<std::uint32_t>(values.dof(key)));
        }
    }

    std::uint32_t
    at(Key key) const
    {
        const auto it = of.find(key);
        if (it == of.end())
            fail(key, " is missing from the ordering");
        return it->second;
    }

    [[noreturn]] void
    fail(Key key, const char *what) const
    {
        throw std::runtime_error(std::string(who) + ": variable " +
                                 std::to_string(key) + what);
    }
};

/**
 * Phase 1 shared by both compilers: lower every factor's DFG and
 * whiten, producing the linearized rows with their blocks in key
 * order. Rejects an ordered variable no factor touches.
 */
std::vector<RowSlots>
lowerConstruction(Builder &b, const fg::FactorGraph &graph,
                  const fg::Values &values, const Positions &pos)
{
    VarSlots vars;
    std::vector<RowSlots> rows(graph.size());
    std::vector<bool> touched(pos.dofs.size(), false);
    for (std::size_t fi = 0; fi < graph.size(); ++fi) {
        const fg::Factor &factor = graph.factor(fi);
        const auto tag = static_cast<std::uint32_t>(fi);

        FactorLowering state;
        lowerForward(b, vars, values, factor, tag, state);

        // Stack the output slots into the factor's error vector.
        Instruction stack;
        stack.op = IsaOp::GATHER;
        std::size_t row_offset = 0;
        for (fg::NodeId out : factor.dfg().outputs()) {
            const std::uint32_t slot = state.nodeSlot[out];
            stack.srcs.push_back(slot);
            stack.placements.push_back({slot, row_offset, 0, true});
            row_offset += b.shape(slot).rows;
        }
        std::uint32_t error_slot = b.emit(
            std::move(stack), Shape::vec(factor.dim()), tag);

        std::map<Key, std::uint32_t> jac;
        lowerBackward(b, values, factor, tag, state, jac);

        // Whitening, optional Huber reweighting, and rhs = -e/sigma.
        RowSlots &row = rows[fi];
        row.dim = static_cast<std::uint32_t>(factor.dim());
        std::uint32_t white_e =
            emitWhiten(b, error_slot, factor.sigmas(), tag);
        std::uint32_t weight_slot = 0;
        const bool robust = factor.robustK() > 0.0;
        if (robust) {
            Instruction hub;
            hub.op = IsaOp::HUBERW;
            hub.srcs = {white_e};
            hub.hingeEps = factor.robustK();
            weight_slot = b.emit(std::move(hub), Shape::vec(1), tag);
            white_e = emitBinary(b, IsaOp::SMUL, white_e, weight_slot,
                                 b.shape(white_e), tag);
        }
        row.rhs = emitUnary(b, IsaOp::NEG, white_e, b.shape(white_e), tag);
        for (const auto &[key, slot] : jac) {
            std::uint32_t white_j =
                emitWhiten(b, slot, factor.sigmas(), tag);
            if (robust)
                white_j = emitBinary(b, IsaOp::SMUL, white_j, weight_slot,
                                     b.shape(white_j), tag);
            row.blocks.emplace_back(pos.at(key), white_j);
            touched[row.blocks.back().first] = true;
        }
    }
    for (std::uint32_t v = 0; v < touched.size(); ++v)
        if (!touched[v])
            pos.fail(pos.ordering[v], " has no adjacent factors");
    return rows;
}

/**
 * Phase 2's symbolic walk (Fig. 5), mirroring fg::eliminate: for each
 * position, the live rows touching it, the involved variables (itself
 * first, then the separator in key order) and the rows kept as the
 * new separator factor. Emits nothing.
 */
UpdateSpec
eliminationSchedule(const std::vector<RowSlots> &rows, const Positions &pos)
{
    UpdateSpec schedule;
    schedule.dofs = pos.dofs;
    const std::size_t n = pos.dofs.size();

    // Every row by position, in creation order: the input rows, then
    // the carries as steps create them.
    std::vector<UpdateSpec::Row> live;
    std::vector<std::vector<std::uint32_t>> adjacent(n);
    std::vector<bool> alive;
    auto addRow = [&](UpdateSpec::Row row) {
        for (std::uint32_t p : row.blocks)
            adjacent[p].push_back(static_cast<std::uint32_t>(live.size()));
        live.push_back(std::move(row));
        alive.push_back(true);
    };
    for (const RowSlots &row : rows) {
        UpdateSpec::Row &input = schedule.rows.emplace_back();
        input.dim = row.dim;
        for (const auto &block : row.blocks)
            input.blocks.push_back(block.first);
        addRow(input);
    }

    schedule.steps.resize(n);
    for (std::uint32_t v = 0; v < n; ++v) {
        UpdateSpec::Step &step = schedule.steps[v];
        std::vector<std::uint32_t> separator;
        std::size_t nrows = 0;
        for (std::uint32_t i : adjacent[v]) {
            if (!alive[i])
                continue;
            alive[i] = false;
            step.rowRefs.push_back(i);
            nrows += live[i].dim;
            for (std::uint32_t p : live[i].blocks)
                if (p != v)
                    separator.push_back(p);
        }
        std::sort(separator.begin(), separator.end(),
                  [&](std::uint32_t a, std::uint32_t b) {
                      return pos.ordering[a] < pos.ordering[b];
                  });
        separator.erase(std::unique(separator.begin(), separator.end()),
                        separator.end());

        const std::size_t dv = pos.dofs[v];
        if (nrows < dv)
            pos.fail(pos.ordering[v], " is underdetermined");
        std::size_t ncols = dv;
        for (std::uint32_t p : separator)
            ncols += pos.dofs[p];
        step.kept = static_cast<std::uint32_t>(std::min(nrows, ncols) - dv);
        step.columns.push_back(v);
        step.columns.insert(step.columns.end(), separator.begin(),
                            separator.end());
        if (step.kept > 0)
            addRow({step.kept, std::move(separator)});
    }
    return schedule;
}

constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();

[[noreturn]] void
reject(const char *what)
{
    throw std::invalid_argument(std::string("elimination: ") + what);
}

/** EXTRACT a block (or, with @p asVector, one column) of @p src. */
std::uint32_t
emitExtract(Builder &b, std::uint32_t src, std::size_t row,
            std::size_t col, std::size_t rows, std::size_t cols,
            bool asVector)
{
    Instruction inst;
    inst.op = IsaOp::EXTRACT;
    inst.srcs = {src};
    inst.extractRow = row;
    inst.extractCol = col;
    inst.extractVector = asVector;
    return b.emit(std::move(inst), asVector ? Shape::vec(rows)
                                            : Shape::matrix(rows, cols));
}

/**
 * GATHER @p rows into a fresh [A | b] of @p ncols + 1 columns: each
 * block at its position's entry of @p colOffset, each rhs last.
 */
std::uint32_t
emitGather(Builder &b, const std::vector<const RowSlots *> &rows,
           const std::vector<std::size_t> &colOffset, std::size_t ncols)
{
    Instruction gather;
    gather.op = IsaOp::GATHER;
    std::size_t row_offset = 0;
    for (const RowSlots *row : rows) {
        std::size_t col = 0;
        for (std::size_t k = 0; k < row->blocks.size(); ++k) {
            const auto [position, slot] = row->blocks[k];
            if (k == 0 || row->blocks[k - 1].first != position) {
                col = colOffset.at(position);
                if (col == kAbsent)
                    reject("row block outside the step's columns");
            }
            const Shape &shape = b.shape(slot);
            gather.srcs.push_back(slot);
            gather.placements.push_back(
                {slot, row_offset, col, shape.isVector});
            col += shape.cols;
        }
        gather.srcs.push_back(row->rhs);
        gather.placements.push_back({row->rhs, row_offset, ncols, true});
        row_offset += row->dim;
    }
    return b.emit(std::move(gather), Shape::matrix(row_offset, ncols + 1));
}

/**
 * Back-substitution, last step first: MV/VSUB per parent, then BSUB,
 * STORE and the binding to deltaKeys[position]. Each conditional
 * block is read at its point of use: @p block(step, c) is the slot of
 * column c's block (0 = its own R), or of the rhs when c is the
 * column count.
 */
void
emitBackSubstitution(
    Builder &b, const UpdateSpec &schedule,
    const std::function<std::uint32_t(std::size_t, std::size_t)> &block,
    const std::vector<Key> &deltaKeys)
{
    b.setPhase(2);
    std::vector<std::uint32_t> delta(schedule.dofs.size(), 0);
    for (std::size_t si = schedule.steps.size(); si-- > 0;) {
        const std::vector<std::uint32_t> &columns =
            schedule.steps[si].columns;
        std::uint32_t rhs = block(si, columns.size());
        for (std::size_t c = 1; c < columns.size(); ++c) {
            Instruction sub;
            sub.op = IsaOp::VSUB;
            sub.srcs = {rhs, emitMatMul(b, IsaOp::MV, block(si, c),
                                        delta[columns[c]])};
            rhs = b.emit(std::move(sub), b.shape(rhs));
        }
        Instruction bsub;
        bsub.op = IsaOp::BSUB;
        bsub.srcs = {block(si, 0), rhs};
        const std::uint32_t position = columns.front();
        delta[position] =
            b.emit(std::move(bsub), Shape::vec(schedule.dofs[position]));
        b.store(delta[position]);
        b.bind(deltaKeys.at(position), delta[position]);
    }
}

} // namespace

void
emitEliminationTail(Builder &b, const UpdateSpec &schedule,
                    std::vector<RowSlots> rows,
                    const std::vector<Key> &deltaKeys,
                    const std::vector<UpdateLayout::StepKeys> *streamed)
{
    const std::vector<std::uint32_t> &dofs = schedule.dofs;
    const std::size_t nsteps = schedule.steps.size();
    if (nsteps > dofs.size())
        reject("more steps than variables");

    b.setPhase(1);
    // Per step: the slot of each column's conditional block, rhs last.
    std::vector<std::vector<std::uint32_t>> conditionals(nsteps);
    std::vector<std::size_t> col_offset(dofs.size(), kAbsent);
    for (std::size_t si = 0; si < nsteps; ++si) {
        const UpdateSpec::Step &step = schedule.steps[si];
        const std::vector<std::uint32_t> &columns = step.columns;
        if (columns.empty() || columns.front() != si)
            reject("step does not eliminate its own position");
        std::size_t ncols = 0;
        for (std::size_t c = 0; c < columns.size(); ++c) {
            if (c > 0 && (columns[c] <= si || columns[c] >= nsteps))
                reject("separator is not eliminated by a later step");
            col_offset[columns[c]] = ncols;
            ncols += dofs[columns[c]];
        }
        std::vector<const RowSlots *> gathered;
        for (std::uint32_t ref : step.rowRefs) {
            if (ref >= rows.size())
                reject("row reference out of range");
            gathered.push_back(&rows[ref]);
        }

        const std::uint32_t abar = emitGather(b, gathered, col_offset, ncols);
        const std::size_t dv = dofs[si];
        if (b.shape(abar).rows < dv + step.kept)
            reject("underdetermined step");
        Instruction qr;
        qr.op = IsaOp::QR;
        qr.srcs = {abar};
        qr.depth = ncols; // Columns actually triangularized.
        const std::uint32_t r = b.emit(std::move(qr), b.shape(abar));

        if (streamed != nullptr) {
            const std::uint32_t out =
                emitExtract(b, r, 0, 0, dv + step.kept, ncols + 1, false);
            b.store(out);
            b.bind(streamed->at(si).key, out);
        }

        std::vector<std::uint32_t> &cond = conditionals[si];
        cond.resize(columns.size() + 1);
        cond[0] = emitExtract(b, r, 0, 0, dv, dv, false);
        cond.back() = emitExtract(b, r, 0, ncols, dv, 1, true);
        for (std::size_t c = 1; c < columns.size(); ++c)
            cond[c] = emitExtract(b, r, 0, col_offset[columns[c]], dv,
                                  dofs[columns[c]], false);

        // Carry row over the separator, for later steps.
        if (step.kept > 0) {
            RowSlots carry;
            carry.dim = step.kept;
            for (std::size_t c = 1; c < columns.size(); ++c)
                carry.blocks.emplace_back(
                    columns[c],
                    emitExtract(b, r, dv, col_offset[columns[c]],
                                step.kept, dofs[columns[c]], false));
            carry.rhs = emitExtract(b, r, dv, ncols, step.kept, 1, true);
            rows.push_back(std::move(carry));
        }
        for (std::uint32_t position : columns)
            col_offset[position] = kAbsent;
    }

    emitBackSubstitution(
        b, schedule,
        [&](std::size_t step, std::size_t column) {
            return conditionals[step][column];
        },
        deltaKeys);
}

Program
compileGraph(const fg::FactorGraph &graph, const fg::Values &values,
             const CompileOptions &options)
{
    const std::vector<Key> ordering =
        options.ordering.empty() ? graph.allKeys() : options.ordering;
    const Positions pos(ordering, values, "compileGraph");
    Builder b(options.algorithmTag);

    // ---- Phase 1: linear-equation construction (per-factor DFGs) ----
    std::vector<RowSlots> rows = lowerConstruction(b, graph, values, pos);

    // ---- Phases 2 and 3: the shared elimination tail ----
    const UpdateSpec schedule = eliminationSchedule(rows, pos);
    emitEliminationTail(b, schedule, std::move(rows), ordering);
    return b.finish(options.name, options.precision);
}

Program
compileDenseGraph(const fg::FactorGraph &graph, const fg::Values &values,
                  const CompileOptions &options)
{
    const std::vector<Key> ordering =
        options.ordering.empty() ? graph.allKeys() : options.ordering;
    const Positions pos(ordering, values, "compileDenseGraph");
    Builder b(options.algorithmTag);
    const std::vector<RowSlots> rows =
        lowerConstruction(b, graph, values, pos);

    std::vector<std::size_t> col_offset;
    std::size_t ncols = 0;
    for (std::uint32_t dof : pos.dofs) {
        col_offset.push_back(ncols);
        ncols += dof;
    }

    // One large dense gather of the whole [A | b] (no sparsity use).
    b.setPhase(1);
    std::vector<const RowSlots *> all;
    for (const RowSlots &row : rows)
        all.push_back(&row);
    const std::uint32_t a_slot = emitGather(b, all, col_offset, ncols);
    if (b.shape(a_slot).rows < ncols)
        throw std::runtime_error("compileDenseGraph: underdetermined");
    Instruction qr;
    qr.op = IsaOp::QR;
    qr.srcs = {a_slot};
    qr.depth = ncols;
    const std::uint32_t r_slot = b.emit(std::move(qr), b.shape(a_slot));

    // Block back-substitution over the dense R (Fig. 6 without the
    // graph: every later variable is a parent of every earlier one),
    // extracting each block of R where it is used.
    UpdateSpec schedule;
    schedule.dofs = pos.dofs;
    schedule.steps.resize(ordering.size());
    for (std::uint32_t v = 0; v < ordering.size(); ++v)
        for (std::uint32_t p = v; p < ordering.size(); ++p)
            schedule.steps[v].columns.push_back(p);
    emitBackSubstitution(
        b, schedule,
        [&](std::size_t v, std::size_t column) {
            const std::size_t dv = pos.dofs[v];
            if (column == ordering.size() - v)
                return emitExtract(b, r_slot, col_offset[v], ncols, dv, 1,
                                   true);
            const std::size_t p = v + column;
            return emitExtract(b, r_slot, col_offset[v], col_offset[p],
                               dv, pos.dofs[p], false);
        },
        ordering);
    return b.finish(options.name + "-dense", options.precision);
}

} // namespace orianna::comp
