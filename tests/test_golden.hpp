#pragma once

// Checked-in golden files shared by the compiler and schedule
// regression suites: comparison against (or regeneration of) a
// golden text, and the FNV-1a listing digest that pins a program's
// slots, deps, placements and delta bindings.
//
// Regenerate a golden file after an intentional change by running
// the owning test binary with ORIANNA_REGEN_GOLDEN=1.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "compiler/isa.hpp"

namespace orianna::test {

/**
 * Compare @p text with the checked-in golden file at @p path, or
 * rewrite the file when ORIANNA_REGEN_GOLDEN is set.
 */
inline void
expectMatchesGolden(const char *path, const std::string &text)
{
    if (std::getenv("ORIANNA_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        out << text;
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " (regenerate with ORIANNA_REGEN_GOLDEN=1)";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(text, golden.str())
        << path << " moved; if intentional, rerun this test binary "
           "with ORIANNA_REGEN_GOLDEN=1";
}

/** 64-bit FNV-1a, printed as 16 hex digits. */
inline std::string
fnv1a64(const std::string &text)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(hash));
    return out;
}

/**
 * Everything a pass rewrite can renumber or reorder: the listing
 * (opcodes, shapes, dst/src slots, deps, slot count), the gather
 * placements and the delta bindings. With @p phases set, each
 * instruction's phase tag is pinned too.
 */
inline std::string
listingDigest(const comp::Program &program, bool phases = false)
{
    std::ostringstream text;
    text << program.str();
    for (std::size_t i = 0; i < program.instructions.size(); ++i)
        for (const comp::GatherPlacement &p :
             program.instructions[i].placements)
            text << "%" << i << " place v" << p.src << " @"
                 << p.rowBegin << "," << p.colBegin
                 << (p.isRhs ? " rhs" : "") << "\n";
    for (const comp::DeltaBinding &binding : program.deltas)
        text << "delta " << binding.key << " v" << binding.slot
             << "\n";
    if (phases) {
        text << "phases ";
        for (const comp::Instruction &inst : program.instructions)
            text << static_cast<int>(inst.phase);
        text << "\n";
    }
    return fnv1a64(text.str());
}

} // namespace orianna::test
