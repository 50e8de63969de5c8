#pragma once

#include <cstdint>
#include <string>

namespace orianna::comp {

/**
 * What one analysis of the optimizing sweep (DESIGN.md §7) did to one
 * program: sizes around it, the number of analysis-specific rewrites
 * (constants merged, expressions shared, pairs fused, ...), and the
 * wall time spent. cleanup() and optimize() return one entry per
 * analysis, chained (each entry's before is the previous one's
 * after); the runtime Engine folds them into its compile diagnostics
 * and the metrics registry.
 */
struct PassStats
{
    std::string pass;           //!< "dedup", "dce", "cse" or "fuse".
    std::size_t before = 0;     //!< Instructions entering the analysis.
    std::size_t after = 0;      //!< Instructions it leaves.
    std::size_t rewrites = 0;   //!< Analysis-specific rewrite count.
    /**
     * Wall time of the analysis; the sweep's one program rewrite is
     * charged to its last entry.
     */
    std::uint64_t wallUs = 0;
    bool verified = false;      //!< The sweep's probe check passed.
};

} // namespace orianna::comp
