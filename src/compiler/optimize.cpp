#include "compiler/optimize.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "compiler/executor.hpp"
#include "matrix/mac_counter.hpp"

namespace orianna::comp {

namespace {

constexpr std::size_t kNoProducer = std::numeric_limits<std::size_t>::max();

/**
 * Builder of byte-exact instruction keys for the merging analyses
 * (dedup, CSE). Keys are raw bytes, so two instructions merge only
 * when every keyed field is bit-identical; hash tables over them
 * compare the full key on every hit, so equal hashes alone never
 * merge anything. clear() keeps the buffer's capacity, so building
 * keys in steady state allocates nothing.
 */
class KeyBuilder
{
  public:
    void clear() { key_.clear(); }

    template <typename T>
    void
    value(T v)
    {
        key_.append(reinterpret_cast<const char *>(&v), sizeof(v));
    }

    void
    vector(const mat::Vector &v)
    {
        value(static_cast<std::uint32_t>(v.size()));
        for (std::size_t i = 0; i < v.size(); ++i)
            value(v[i]);
    }

    void
    matrix(const mat::Matrix &m)
    {
        value(static_cast<std::uint32_t>(m.rows()));
        value(static_cast<std::uint32_t>(m.cols()));
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                value(m(i, j));
    }

    const std::string &key() const { return key_; }

  private:
    std::string key_;
};

/**
 * One sweep's state over the input program's raw slots. Analyses
 * only mark: drop(i) removes instruction i, and remap sends a merged
 * dst slot to the slot of the occurrence that survives. Merge targets
 * are survivors that no later analysis merges away (CSE never revisits
 * a first occurrence, and its key on a LOADC extends dedup's, so no
 * two dedup survivors share one), hence remap is one hop, as
 * rewriteProgram() requires.
 */
struct Sweep
{
    explicit Sweep(Program &p)
        : program(p), dropped(p.instructions.size(), false),
          remap(p.valueSlots), live(p.instructions.size())
    {
        std::iota(remap.begin(), remap.end(), 0u);
    }

    void
    drop(std::size_t i)
    {
        dropped[i] = true;
        --live;
    }

    /** producer[slot] = index of the surviving instruction defining it. */
    std::vector<std::size_t>
    producers() const
    {
        std::vector<std::size_t> producer(program.valueSlots,
                                          kNoProducer);
        for (std::size_t i = 0; i < program.instructions.size(); ++i)
            if (!dropped[i] &&
                program.instructions[i].op != IsaOp::STORE)
                producer[program.instructions[i].dst] = i;
        return producer;
    }

    Program &program;
    std::vector<bool> dropped;
    std::vector<std::uint32_t> remap;
    std::size_t live; //!< Instructions not dropped so far.
};

/** dedup: byte-identical LOADC payloads share the first one's slot. */
void
dedup(Sweep &sweep)
{
    const auto &instrs = sweep.program.instructions;
    // Payload key (shape, then every value) -> the first LOADC's slot.
    std::unordered_map<std::string, std::uint32_t> seen;
    seen.reserve(instrs.size());
    KeyBuilder kb;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction &inst = instrs[i];
        if (inst.op != IsaOp::LOADC)
            continue;
        kb.clear();
        kb.matrix(inst.constMat);
        kb.vector(inst.constVec);
        auto [it, inserted] = seen.try_emplace(kb.key(), inst.dst);
        if (!inserted) {
            sweep.remap[inst.dst] = it->second;
            sweep.drop(i);
        }
    }
}

/** dce: drop instructions whose results never reach a STORE. */
void
dce(Sweep &sweep)
{
    const auto &instrs = sweep.program.instructions;
    const std::size_t n = instrs.size();
    const std::vector<std::size_t> producer = sweep.producers();

    // Liveness from the STORE roots.
    std::vector<bool> live(n, false);
    std::vector<std::size_t> worklist;
    for (std::size_t i = 0; i < n; ++i) {
        if (!sweep.dropped[i] && instrs[i].op == IsaOp::STORE) {
            live[i] = true;
            worklist.push_back(i);
        }
    }
    while (!worklist.empty()) {
        const std::size_t i = worklist.back();
        worklist.pop_back();
        auto visit = [&](std::uint32_t src) {
            const std::size_t p = producer[sweep.remap[src]];
            if (p != kNoProducer && !live[p]) {
                live[p] = true;
                worklist.push_back(p);
            }
        };
        for (std::uint32_t src : instrs[i].srcs)
            visit(src);
        for (const GatherPlacement &p : instrs[i].placements)
            visit(p.src);
    }
    for (std::size_t i = 0; i < n; ++i)
        if (!sweep.dropped[i] && !live[i])
            sweep.drop(i);
}

/**
 * cse: instructions with identical opcode, operand slots and payload
 * reuse the first occurrence's slot (repeated Jacobian chains of
 * variables shared by several factors).
 */
void
cse(Sweep &sweep)
{
    const auto &instrs = sweep.program.instructions;
    // Byte-exact structural key of an instruction: opcode, remapped
    // operand slots, output shape, and every op-specific payload that
    // feeds the numerics. Two instructions with equal keys compute the
    // same value in an SSA program, because equal operand slots hold
    // equal values by induction. Remapped operands make chains of
    // duplicates collapse transitively in one forward walk.
    std::unordered_map<std::string, std::uint32_t> seen;
    seen.reserve(instrs.size());
    KeyBuilder kb;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instruction &inst = instrs[i];
        if (sweep.dropped[i] || inst.op == IsaOp::STORE)
            continue; // STORE is a host-visibility marker, not a value.

        kb.clear();
        kb.value(static_cast<std::uint8_t>(inst.op));
        kb.value(static_cast<std::uint32_t>(inst.srcs.size()));
        for (std::uint32_t src : inst.srcs)
            kb.value(sweep.remap[src]);
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
        // SDF maps compare by identity, like the engine fingerprint:
        // one shared map object, one compiled lookup.
        kb.value(reinterpret_cast<std::uintptr_t>(inst.sdf.get()));
        kb.value(static_cast<std::uint32_t>(inst.extractRow));
        kb.value(static_cast<std::uint32_t>(inst.extractCol));
        kb.value(static_cast<std::uint8_t>(inst.extractVector));
        kb.matrix(inst.constMat);
        kb.vector(inst.constVec);
        kb.value(static_cast<std::uint32_t>(inst.placements.size()));
        for (const GatherPlacement &p : inst.placements) {
            kb.value(sweep.remap[p.src]);
            kb.value(static_cast<std::uint32_t>(p.rowBegin));
            kb.value(static_cast<std::uint32_t>(p.colBegin));
            kb.value(static_cast<std::uint8_t>(p.isRhs));
        }

        auto [it, inserted] = seen.try_emplace(kb.key(), inst.dst);
        if (!inserted) {
            sweep.remap[inst.dst] = it->second;
            sweep.drop(i);
        }
    }
}

/**
 * fuse: single-use producer/consumer pairs collapse into one issue.
 *
 *  - GATHER feeding exactly one SCALER becomes GSCALE: the block is
 *    whitened while it is assembled in the buffer unit, saving one
 *    round trip through the vector ALU.
 *  - MV (or RV) feeding operand 1 of exactly one VSUB becomes MVSUB:
 *    the back-substitution rhs update dst = rhs - R_vp * delta_p
 *    issues as one gemv-subtract on the MatMul unit.
 *
 * Both fused executors perform the identical floating-point
 * operations in the identical order as the unfused pair, so fusion is
 * bit-exact; it only removes an instruction boundary.
 */
void
fuse(Sweep &sweep)
{
    Program &program = sweep.program;
    auto &instrs = program.instructions;

    // References to each (remapped) slot from the survivors' operands,
    // gather placements and delta bindings. A producer fuses only when
    // its sole reference is the consumer being rewritten.
    std::vector<std::size_t> uses(program.valueSlots, 0);
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (sweep.dropped[i])
            continue;
        for (std::uint32_t src : instrs[i].srcs)
            ++uses[sweep.remap[src]];
        for (const GatherPlacement &p : instrs[i].placements)
            ++uses[sweep.remap[p.src]];
    }
    for (const DeltaBinding &binding : program.deltas)
        ++uses[sweep.remap[binding.slot]];

    const std::vector<std::size_t> producer = sweep.producers();
    auto fusible = [&](std::uint32_t src) {
        const std::uint32_t slot = sweep.remap[src];
        const std::size_t p = producer[slot];
        return p != kNoProducer && !sweep.dropped[p] && uses[slot] == 1
                   ? p
                   : kNoProducer;
    };
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (sweep.dropped[i])
            continue;
        Instruction &inst = instrs[i];
        if (inst.op == IsaOp::SCALER) {
            const std::size_t p = fusible(inst.srcs[0]);
            if (p == kNoProducer || instrs[p].op != IsaOp::GATHER)
                continue;
            inst.op = IsaOp::GSCALE;
            inst.srcs = std::move(instrs[p].srcs);
            inst.placements = std::move(instrs[p].placements);
            sweep.drop(p);
        } else if (inst.op == IsaOp::VSUB) {
            const std::size_t p = fusible(inst.srcs[1]);
            if (p == kNoProducer || (instrs[p].op != IsaOp::MV &&
                                     instrs[p].op != IsaOp::RV))
                continue;
            const Instruction &mv = instrs[p];
            inst.op = IsaOp::MVSUB;
            inst.srcs = {inst.srcs[0], mv.srcs[0], mv.srcs[1]};
            inst.depth = mv.depth;
            sweep.drop(p);
        }
    }
}

/** The analyses in sweep order; cleanup() runs the first two. */
constexpr struct
{
    const char *name;
    void (*run)(Sweep &);
} kAnalyses[] = {{"dedup", &dedup}, {"dce", &dce}, {"cse", &cse},
                 {"fuse", &fuse}};

std::vector<PassStats>
runSweep(Program &program, std::size_t analyses)
{
    Sweep state(program);
    std::vector<PassStats> stats;
    stats.reserve(analyses);
    auto mark = std::chrono::steady_clock::now();
    for (std::size_t a = 0; a < analyses; ++a) {
        PassStats entry;
        entry.pass = kAnalyses[a].name;
        entry.before = state.live;
        kAnalyses[a].run(state);
        entry.after = state.live;
        entry.rewrites = entry.before - entry.after;
        // The one rewrite, when anything was dropped, is charged to
        // the last analysis.
        if (a + 1 == analyses && state.live < program.instructions.size())
            program = rewriteProgram(std::move(program), state.dropped,
                                     state.remap);
        const auto now = std::chrono::steady_clock::now();
        entry.wallUs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                now - mark)
                .count());
        mark = now;
        stats.push_back(std::move(entry));
    }
    return stats;
}

std::vector<PassStats>
checkedSweep(Program &program, std::size_t analyses, const char *stage,
             const SweepOptions &options)
{
    if (!options.verify || options.probe == nullptr)
        return runSweep(program, analyses);
    std::vector<PassStats> stats;
    verifiedRewrite(program, *options.probe, stage,
                    [&](Program &p) { stats = runSweep(p, analyses); });
    for (PassStats &entry : stats)
        entry.verified = true;
    return stats;
}

/** Probe snapshot: per-variable deltas plus the MACs spent. */
struct ProbeResult
{
    std::map<Key, Vector> deltas;
    std::uint64_t macs = 0;
};

ProbeResult
runProbe(const Program &program, const fg::Values &values)
{
    ProbeResult result;
    Executor executor(program);
    mat::MacScope scope;
    result.deltas = executor.run(values);
    result.macs = scope.elapsed();
    return result;
}

/** Bitwise comparison — NaNs and signed zeros must survive intact. */
bool
bitIdentical(const Vector &a, const Vector &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = a[i];
        const double y = b[i];
        if (std::memcmp(&x, &y, sizeof(double)) != 0)
            return false;
    }
    return true;
}

} // namespace

std::vector<PassStats>
cleanup(Program &program, const SweepOptions &options)
{
    return checkedSweep(program, 2, "cleanup", options);
}

std::vector<PassStats>
optimize(Program &program, const SweepOptions &options)
{
    return checkedSweep(program, std::size(kAnalyses), "optimize",
                        options);
}

bool
verifyPassesFromEnv()
{
    const char *env = std::getenv("ORIANNA_VERIFY_PASSES");
    return env != nullptr && *env != '\0' && std::string(env) != "0";
}

void
verifiedRewrite(Program &program, const fg::Values &probe,
                const char *stage,
                const std::function<void(Program &)> &rewrite)
{
    const ProbeResult before = runProbe(program, probe);
    rewrite(program);
    const ProbeResult after = runProbe(program, probe);

    auto fail = [&](const char *what) {
        throw std::runtime_error(std::string("pass verification failed: '") +
                                 stage + "' " + what);
    };
    if (before.deltas.size() != after.deltas.size())
        fail("changed the set of delta bindings");
    for (const auto &[key, delta] : before.deltas) {
        auto it = after.deltas.find(key);
        if (it == after.deltas.end() || !bitIdentical(delta, it->second))
            fail("changed the probe deltas");
    }
    if (after.macs > before.macs)
        fail("increased the executed MAC count");
}

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
