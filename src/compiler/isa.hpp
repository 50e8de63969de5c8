#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fg/dfg.hpp"
#include "fg/sdf_map.hpp"
#include "fg/values.hpp"

namespace orianna::comp {

using fg::Key;
using mat::Matrix;
using mat::Vector;

/**
 * The ORIANNA instruction set (Sec. 5.2): matrix-related instructions
 * over small operands. The first group implements the Tbl. 3
 * primitives (plus their backward-pass companions HAT/JR/JRINV and the
 * DESIGN.md extension ops); the second group implements factor-graph
 * inference (Fig. 5 / Fig. 6); the third group moves data.
 */
enum class IsaOp : std::uint8_t {
    // Factor-computing block (linear-equation construction).
    EXP,    //!< dst = Exp(src0)              [special-function unit]
    LOG,    //!< dst = Log(src0)              [special-function unit]
    RT,     //!< dst = src0^T                 [transpose unit]
    RR,     //!< dst = src0 * src1 (rotation) [matmul unit]
    MM,     //!< dst = src0 * src1 (general)  [matmul unit]
    RV,     //!< dst = src0 * src1 (rot, vec) [matmul unit]
    MV,     //!< dst = src0 * src1 (gen, vec) [matmul unit]
    VADD,   //!< dst = src0 + src1            [vector unit, VP]
    VSUB,   //!< dst = src0 - src1            [vector unit, VP]
    NEG,    //!< dst = -src0                  [vector unit, VP]
    HAT,    //!< dst = hat(src0)              [vector unit]
    JR,     //!< dst = J_r(src0)              [special-function unit]
    JRINV,  //!< dst = J_r^-1(src0)           [special-function unit]
    PROJ,   //!< dst = pinhole(src0)          [special-function unit]
    PROJJ,  //!< dst = d pinhole / d src0     [special-function unit]
    SDF,    //!< dst = [distance(src0)]       [special-function unit]
    SDFJ,   //!< dst = grad distance(src0)    [special-function unit]
    HINGE,  //!< dst = max(0, eps - src0)     [vector unit]
    HINGEJ, //!< dst = d hinge / d src0       [vector unit]
    NORM,   //!< dst = [|src0|]               [special-function unit]
    NORMJ,  //!< dst = d|src0| / d src0       [special-function unit]
    HUBERW, //!< dst = [sqrt(min(1, k/|src0|))] (k in hingeEps)
            //!<                                [special-function unit]
    SMUL,   //!< dst = src1[0] * src0         [vector unit]
    SCALER, //!< dst = diag(payload)^-1 src0 (whitening) [vector unit]
    // Factor-graph inference block.
    GATHER, //!< dst = dense [A|b] stacked from placements [buffer]
    QR,     //!< dst = R of QR(src0) (augmented)           [QR unit]
    EXTRACT,//!< dst = block(src0, i0, j0, rows, cols)     [buffer]
    BSUB,   //!< dst = src0^-1 src1 (upper triangular)     [back-sub unit]
    // Data movement.
    LOADC,  //!< dst = constant payload (on-chip after first use).
    LOADV,  //!< dst = variable component streamed from the host.
    STORE,  //!< Mark src0 as a result streamed back to the host.
    // Fused opcodes. Never emitted by codegen: the fuse analysis of
    // comp::optimize() (src/compiler/optimize.cpp) rewrites single-use
    // producer/consumer pairs into these, mapping them onto the fused
    // microkernels the matrix layer already provides. Each fused op
    // performs exactly the floating-point operations of the pair it
    // replaces, in the same order, so programs stay bit-identical.
    GSCALE, //!< GATHER placements, then rows /= payload  [buffer]
    MVSUB,  //!< dst = src0 - src1 * src2 (gemv-subtract) [matmul unit]
};

/** Number of opcodes (histogram sizing, encoding validation). */
constexpr std::size_t kIsaOpCount =
    static_cast<std::size_t>(IsaOp::MVSUB) + 1;

/** Mnemonic for listings. */
const char *isaOpName(IsaOp op);

/**
 * Numeric precision a program's datapath executes in (DESIGN.md §12).
 * Fp64 is the bit-exact reference every golden digest is defined on;
 * Fp32 is the reduced-precision accelerator mode — twice the SIMD
 * lane width and half the word traffic, with the Engine degradation
 * ladder falling back to the fp64 reference program when the reduced
 * mantissa breaks a frame. Encoded as one byte in encoding v3; v2
 * payloads decode as Fp64.
 */
enum class Precision : std::uint8_t { Fp64 = 0, Fp32 = 1 };

constexpr std::size_t kPrecisionCount = 2;

/** Lower-case name ("fp64", "fp32"). */
const char *precisionName(Precision precision);

/**
 * Parse "fp64"/"fp32" (also accepts "double"/"float"). Returns false
 * and leaves @p out untouched on an unknown spec.
 */
bool parsePrecision(const std::string &spec, Precision &out);

/** Which variable component a LOADV streams in. */
enum class VarComponent : std::uint8_t {
    Phi,         //!< so(n) orientation of a pose (Exp runs on-chip).
    Translation, //!< t of a pose.
    Whole,       //!< A plain vector variable.
};

/** One placement of a GATHER: copy a block into the dense [A|b]. */
struct GatherPlacement
{
    std::uint32_t src;    //!< Value slot holding the block.
    std::size_t rowBegin; //!< Destination row offset.
    std::size_t colBegin; //!< Destination column offset.
    bool isRhs = false;   //!< Source is a vector going to the b column.
};

/**
 * One ORIANNA instruction. Operands address a flat value table whose
 * slots are assigned statically by the compiler; `deps` lists the
 * producing instructions (the data-flow edges the out-of-order
 * scheduler honours, Sec. 6.3).
 */
struct Instruction
{
    IsaOp op = IsaOp::LOADC;
    std::vector<std::uint32_t> srcs;
    std::uint32_t dst = 0;
    std::vector<std::uint32_t> deps;

    // Shape of the produced value (latency / energy model input).
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t depth = 0; //!< Inner dimension for matmul-type ops.

    std::uint8_t algorithm = 0; //!< Coarse-grained OoO tag (Sec. 6.3).
    std::uint32_t factor = 0;   //!< Originating factor, for listings.
    std::uint8_t phase = 0;     //!< 0 construction, 1 decomposition,
                                //!< 2 back substitution.

    // Op-specific payloads.
    Matrix constMat;                        //!< LOADC matrix payload.
    Vector constVec;                        //!< LOADC/SCALER payload.
    Key key = 0;                            //!< LOADV variable.
    VarComponent component = VarComponent::Whole;
    fg::CameraModel camera;                 //!< PROJ / PROJJ.
    fg::SdfMapPtr sdf;                      //!< SDF / SDFJ.
    double hingeEps = 0.0;                  //!< HINGE / HINGEJ.
    std::vector<GatherPlacement> placements; //!< GATHER layout.
    std::size_t extractRow = 0;             //!< EXTRACT block origin.
    std::size_t extractCol = 0;
    bool extractVector = false; //!< EXTRACT a single column as a vector.
};

/** Result binding: which slot holds delta for which variable. */
struct DeltaBinding
{
    Key key;
    std::uint32_t slot;
};

/**
 * A compiled instruction stream for one factor graph (one algorithm).
 * Running the program once performs a single Gauss-Newton step:
 * construct the linear equations, eliminate, back-substitute.
 */
struct Program
{
    std::vector<Instruction> instructions;
    std::size_t valueSlots = 0;          //!< Size of the value table.
    std::vector<DeltaBinding> deltas;    //!< Output bindings.
    std::uint8_t algorithm = 0;          //!< Tag of every instruction.
    /** Datapath precision the program executes in (DESIGN.md §12). */
    Precision precision = Precision::Fp64;
    std::string name;                    //!< For listings.

    /** Counts per opcode, for the listings and resource sizing. */
    std::vector<std::size_t> opHistogram() const;

    /** Pretty listing (one line per instruction). */
    std::string str() const;
};

} // namespace orianna::comp
