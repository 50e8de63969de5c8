#include "compiler/encoding.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace orianna::comp {

namespace {

constexpr std::uint32_t kMagic = 0x414e524f; // "ORNA".
// Version 2 added the fused opcodes (GSCALE, MVSUB). The container
// layout is unchanged — fused opcodes were appended after STORE so
// every version-1 byte stream decodes identically — so the decoder
// accepts both versions.
// Version 3 appends a one-byte datapath precision tag after the
// algorithm tag (DESIGN.md §12). Version 1/2 payloads carry no tag
// and decode as Fp64, which is what every pre-v3 program executed in.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kMinVersion = 1;

/** Little-endian byte writer. */
class Writer
{
  public:
    template <typename T>
    void
    pod(T value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto *raw = reinterpret_cast<const std::uint8_t *>(&value);
        bytes_.insert(bytes_.end(), raw, raw + sizeof(T));
    }

    void
    str(const std::string &s)
    {
        pod(static_cast<std::uint32_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

    void
    vec(const Vector &v)
    {
        pod(static_cast<std::uint32_t>(v.size()));
        for (std::size_t i = 0; i < v.size(); ++i)
            pod(v[i]);
    }

    void
    matrix(const Matrix &m)
    {
        pod(static_cast<std::uint32_t>(m.rows()));
        pod(static_cast<std::uint32_t>(m.cols()));
        for (std::size_t i = 0; i < m.rows(); ++i)
            for (std::size_t j = 0; j < m.cols(); ++j)
                pod(m(i, j));
    }

    std::vector<std::uint8_t> take() { return std::move(bytes_); }

  private:
    std::vector<std::uint8_t> bytes_;
};

/** Bounds-checked little-endian byte reader. */
class Reader
{
  public:
    explicit Reader(const std::vector<std::uint8_t> &bytes)
        : bytes_(bytes)
    {}

    template <typename T>
    T
    pod()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        if (offset_ + sizeof(T) > bytes_.size())
            throw std::runtime_error("decodeProgram: truncated input");
        T value;
        std::memcpy(&value, bytes_.data() + offset_, sizeof(T));
        offset_ += sizeof(T);
        return value;
    }

    std::string
    str()
    {
        const auto n = pod<std::uint32_t>();
        if (offset_ + n > bytes_.size())
            throw std::runtime_error("decodeProgram: truncated string");
        std::string s(bytes_.begin() + offset_,
                      bytes_.begin() + offset_ + n);
        offset_ += n;
        return s;
    }

    Vector
    vec()
    {
        const auto n = pod<std::uint32_t>();
        fits(n, sizeof(double));
        Vector v(n);
        for (std::uint32_t i = 0; i < n; ++i)
            v[i] = pod<double>();
        return v;
    }

    Matrix
    matrix()
    {
        const auto rows = pod<std::uint32_t>();
        const auto cols = pod<std::uint32_t>();
        if ((rows == 0) != (cols == 0))
            throw std::runtime_error("decodeProgram: degenerate matrix");
        fits(std::uint64_t{rows} * cols, sizeof(double));
        Matrix m(rows, cols);
        for (std::uint32_t i = 0; i < rows; ++i)
            for (std::uint32_t j = 0; j < cols; ++j)
                m(i, j) = pod<double>();
        return m;
    }

    bool done() const { return offset_ == bytes_.size(); }

    /**
     * Reject a count of @p count items of at least @p size bytes each
     * that the remaining input cannot hold, before anything is sized
     * by it.
     */
    void
    fits(std::uint64_t count, std::size_t size) const
    {
        if (count > (bytes_.size() - offset_) / size)
            throw std::runtime_error("decodeProgram: count exceeds input");
    }

  private:
    const std::vector<std::uint8_t> &bytes_;
    std::size_t offset_ = 0;
};

void
encodeInstruction(Writer &w, const Instruction &inst)
{
    w.pod(static_cast<std::uint8_t>(inst.op));
    w.pod(inst.algorithm);
    w.pod(inst.phase);
    w.pod(static_cast<std::uint8_t>(inst.extractVector ? 1 : 0));
    w.pod(static_cast<std::uint32_t>(inst.rows));
    w.pod(static_cast<std::uint32_t>(inst.cols));
    w.pod(static_cast<std::uint32_t>(inst.depth));
    w.pod(inst.dst);
    w.pod(static_cast<std::uint32_t>(inst.srcs.size()));
    for (std::uint32_t s : inst.srcs)
        w.pod(s);
    w.pod(static_cast<std::uint32_t>(inst.deps.size()));
    for (std::uint32_t d : inst.deps)
        w.pod(d);
    w.pod(inst.key);
    w.pod(static_cast<std::uint8_t>(inst.component));
    w.pod(inst.factor);
    w.pod(inst.hingeEps);
    w.pod(inst.camera.fx);
    w.pod(inst.camera.fy);
    w.pod(inst.camera.cx);
    w.pod(inst.camera.cy);
    w.pod(static_cast<std::uint32_t>(inst.extractRow));
    w.pod(static_cast<std::uint32_t>(inst.extractCol));
    w.matrix(inst.constMat);
    w.vec(inst.constVec);
    w.pod(static_cast<std::uint32_t>(inst.placements.size()));
    for (const GatherPlacement &p : inst.placements) {
        w.pod(p.src);
        w.pod(static_cast<std::uint32_t>(p.rowBegin));
        w.pod(static_cast<std::uint32_t>(p.colBegin));
        w.pod(static_cast<std::uint8_t>(p.isRhs ? 1 : 0));
    }
    if (inst.sdf) {
        const auto obstacles = inst.sdf->obstacles();
        w.pod(static_cast<std::uint32_t>(obstacles.size() + 1));
        for (const auto &[center, radius] : obstacles) {
            w.vec(center);
            w.pod(radius);
        }
    } else {
        w.pod(static_cast<std::uint32_t>(0));
    }
}

Instruction
decodeInstruction(Reader &r)
{
    Instruction inst;
    const auto raw_op = r.pod<std::uint8_t>();
    if (raw_op >= kIsaOpCount)
        throw std::runtime_error("decodeProgram: bad opcode");
    inst.op = static_cast<IsaOp>(raw_op);
    inst.algorithm = r.pod<std::uint8_t>();
    inst.phase = r.pod<std::uint8_t>();
    inst.extractVector = r.pod<std::uint8_t>() != 0;
    inst.rows = r.pod<std::uint32_t>();
    inst.cols = r.pod<std::uint32_t>();
    inst.depth = r.pod<std::uint32_t>();
    inst.dst = r.pod<std::uint32_t>();
    const auto nsrcs = r.pod<std::uint32_t>();
    for (std::uint32_t i = 0; i < nsrcs; ++i)
        inst.srcs.push_back(r.pod<std::uint32_t>());
    const auto ndeps = r.pod<std::uint32_t>();
    for (std::uint32_t i = 0; i < ndeps; ++i)
        inst.deps.push_back(r.pod<std::uint32_t>());
    inst.key = r.pod<Key>();
    const auto raw_component = r.pod<std::uint8_t>();
    if (raw_component > static_cast<std::uint8_t>(VarComponent::Whole))
        throw std::runtime_error("decodeProgram: bad variable component");
    inst.component = static_cast<VarComponent>(raw_component);
    inst.factor = r.pod<std::uint32_t>();
    inst.hingeEps = r.pod<double>();
    inst.camera.fx = r.pod<double>();
    inst.camera.fy = r.pod<double>();
    inst.camera.cx = r.pod<double>();
    inst.camera.cy = r.pod<double>();
    inst.extractRow = r.pod<std::uint32_t>();
    inst.extractCol = r.pod<std::uint32_t>();
    inst.constMat = r.matrix();
    inst.constVec = r.vec();
    const auto nplace = r.pod<std::uint32_t>();
    for (std::uint32_t i = 0; i < nplace; ++i) {
        GatherPlacement p;
        p.src = r.pod<std::uint32_t>();
        p.rowBegin = r.pod<std::uint32_t>();
        p.colBegin = r.pod<std::uint32_t>();
        p.isRhs = r.pod<std::uint8_t>() != 0;
        inst.placements.push_back(p);
    }
    const auto sdf_marker = r.pod<std::uint32_t>();
    if (sdf_marker > 0) {
        auto map = std::make_shared<fg::SdfMap>();
        for (std::uint32_t i = 0; i + 1 < sdf_marker; ++i) {
            Vector center = r.vec();
            const double radius = r.pod<double>();
            if (!(radius > 0.0))
                throw std::runtime_error("decodeProgram: bad obstacle");
            map->addObstacle(std::move(center), radius);
        }
        inst.sdf = std::move(map);
    }
    return inst;
}


/** Sources each opcode reads (GATHER and GSCALE read placements). */
std::size_t
sourceCount(IsaOp op)
{
    switch (op) {
      case IsaOp::LOADC:
      case IsaOp::LOADV:
        return 0;
      case IsaOp::RR:
      case IsaOp::MM:
      case IsaOp::RV:
      case IsaOp::MV:
      case IsaOp::VADD:
      case IsaOp::VSUB:
      case IsaOp::SMUL:
      case IsaOp::BSUB:
        return 2;
      case IsaOp::MVSUB:
        return 3;
      default:
        return 1;
    }
}

/**
 * The structure the scheduler and the in-place interpreter rely on,
 * which codegen and the optimizing sweep's rewriteProgram always
 * emit: opcode operand counts, deps on earlier instructions only,
 * srcs and placements written by earlier instructions, one producer
 * per slot (STORE writes none; its dst names its source) and written
 * delta slots.
 */
void
validate(const Program &program)
{
    auto reject = [](const char *what) {
        throw std::runtime_error(std::string("decodeProgram: ") + what);
    };
    std::vector<bool> written(program.valueSlots, false);
    auto isWritten = [&](std::uint32_t slot) {
        return slot < written.size() && written[slot];
    };
    for (std::size_t i = 0; i < program.instructions.size(); ++i) {
        const Instruction &inst = program.instructions[i];
        if (inst.op != IsaOp::GATHER && inst.op != IsaOp::GSCALE &&
            inst.srcs.size() != sourceCount(inst.op))
            reject("wrong operand count");
        if ((inst.op == IsaOp::SDF || inst.op == IsaOp::SDFJ) &&
            inst.sdf == nullptr)
            reject("SDF instruction without a map");
        for (std::uint32_t dep : inst.deps)
            if (dep >= i)
                reject("dep does not name an earlier instruction");
        for (std::uint32_t src : inst.srcs)
            if (!isWritten(src))
                reject("bad slot reference");
        for (const GatherPlacement &p : inst.placements)
            if (!isWritten(p.src))
                reject("bad slot reference");
        if (inst.op == IsaOp::STORE) {
            if (inst.dst != inst.srcs[0])
                reject("STORE does not name its source");
        } else if (inst.dst >= written.size() || written[inst.dst]) {
            reject("bad slot reference");
        } else {
            written[inst.dst] = true;
        }
    }
    for (const DeltaBinding &binding : program.deltas)
        if (!isWritten(binding.slot))
            reject("delta binding names an unwritten slot");
}

} // namespace

std::uint32_t
encodingVersion()
{
    return kVersion;
}

std::uint32_t
minEncodingVersion()
{
    return kMinVersion;
}

std::vector<std::uint8_t>
encodeProgram(const Program &program)
{
    Writer w;
    w.pod(kMagic);
    w.pod(kVersion);
    w.str(program.name);
    w.pod(program.algorithm);
    w.pod(static_cast<std::uint8_t>(program.precision));
    w.pod(static_cast<std::uint64_t>(program.valueSlots));
    w.pod(static_cast<std::uint32_t>(program.deltas.size()));
    for (const DeltaBinding &binding : program.deltas) {
        w.pod(binding.key);
        w.pod(binding.slot);
    }
    w.pod(static_cast<std::uint32_t>(program.instructions.size()));
    for (const Instruction &inst : program.instructions)
        encodeInstruction(w, inst);
    return w.take();
}

Program
decodeProgram(const std::vector<std::uint8_t> &bytes)
{
    Reader r(bytes);
    if (r.pod<std::uint32_t>() != kMagic)
        throw std::runtime_error("decodeProgram: bad magic");
    const auto version = r.pod<std::uint32_t>();
    if (version < kMinVersion || version > kVersion)
        throw std::runtime_error("decodeProgram: unsupported version");

    Program program;
    program.name = r.str();
    program.algorithm = r.pod<std::uint8_t>();
    if (version >= 3) {
        const auto raw = r.pod<std::uint8_t>();
        if (raw >= kPrecisionCount)
            throw std::runtime_error("decodeProgram: bad precision");
        program.precision = static_cast<Precision>(raw);
    }
    program.valueSlots =
        static_cast<std::size_t>(r.pod<std::uint64_t>());
    const auto ndeltas = r.pod<std::uint32_t>();
    for (std::uint32_t i = 0; i < ndeltas; ++i) {
        DeltaBinding binding;
        binding.key = r.pod<Key>();
        binding.slot = r.pod<std::uint32_t>();
        program.deltas.push_back(binding);
    }
    const auto ninstr = r.pod<std::uint32_t>();
    // Every slot has its own producing instruction.
    if (program.valueSlots > ninstr)
        throw std::runtime_error("decodeProgram: more slots than "
                                 "instructions");
    static const std::size_t min_instruction_bytes = [] {
        Writer w;
        encodeInstruction(w, Instruction{});
        return w.take().size();
    }();
    r.fits(ninstr, min_instruction_bytes);
    program.instructions.reserve(ninstr);
    for (std::uint32_t i = 0; i < ninstr; ++i)
        program.instructions.push_back(decodeInstruction(r));
    if (!r.done())
        throw std::runtime_error("decodeProgram: trailing bytes");
    validate(program);
    return program;
}

void
saveProgram(const std::string &path, const Program &program)
{
    const auto bytes = encodeProgram(program);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("saveProgram: cannot open " + path);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        throw std::runtime_error("saveProgram: write failed");
}

Program
loadProgram(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("loadProgram: cannot open " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return decodeProgram(bytes);
}

} // namespace orianna::comp
