#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "compiler/isa.hpp"

namespace orianna::runtime {

/**
 * Persistent on-disk cache of compiled programs (DESIGN.md §11) —
 * the shader-cache tier behind the Engine's in-memory program cache.
 * Entries are keyed by the graph content fingerprint and written as
 * one file per program:
 *
 *   <dir>/<fingerprint as 16 hex digits>.oprog
 *
 * Each file is a small validated container around the existing binary
 * program encoding:
 *
 *   magic 'ORST' | store version | encoding version | fingerprint |
 *   pass-spec string | payload size | FNV-1a checksum | payload
 *
 * where the payload is exactly comp::encodeProgram()'s output for the
 * post-pipeline program. Validation on load walks that ladder in
 * order (magic, store version, encoding version range, fingerprint
 * echo, pass spec, payload size, checksum, decode) and treats any
 * failure as a clean MISS — a corrupted, truncated, stale or foreign
 * file makes the engine recompile, never crash and never serve a
 * wrong program. The checksum guarantees every single-byte payload
 * corruption is caught; the header fields guard everything else.
 *
 * Atomicity contract (single-writer per rename): store() writes the
 * entry to a unique dot-prefixed temp file in the same directory and
 * publishes it with rename(), which is atomic on POSIX filesystems.
 * Readers therefore only ever observe a complete entry or no entry.
 * Two processes publishing the same fingerprint race benignly: the
 * compile is deterministic, so both temp files hold identical bytes
 * and the last rename wins with the same content. Temp files from a
 * killed writer are invisible to load() (entry names are exact) and
 * are swept opportunistically by the next construction.
 *
 * Thread safety: load()/store() may be called concurrently from any
 * threads (and any processes sharing the directory); the counters are
 * atomic.
 */
class ProgramStore
{
  public:
    /**
     * Open (creating if necessary) the cache directory. A directory
     * that cannot be created or is not writable leaves the store
     * permanently unavailable — every load misses, every store fails
     * cleanly — rather than throwing: a broken cache must never take
     * the serving path down.
     */
    explicit ProgramStore(std::string dir);

    const std::string &dir() const { return dir_; }

    /** False when the directory could not be created/probed. */
    bool available() const { return available_; }

    /**
     * Fetch the entry for @p fingerprint, expecting an artifact built
     * by the @p passSpec sweep (comp::kOptimizeSpec or
     * comp::kCleanupSpec). Returns nullptr on any miss —
     * absent file, failed validation rung, or undecodable payload —
     * and never throws for a bad entry.
     */
    std::shared_ptr<const comp::Program>
    load(std::uint64_t fingerprint, const std::string &passSpec);

    /**
     * Atomically publish @p program under @p fingerprint. Returns
     * false (and counts a write failure) when anything goes wrong;
     * the store never throws on the serving path.
     */
    bool store(std::uint64_t fingerprint, const std::string &passSpec,
               const comp::Program &program);

    /** Snapshot of the store counters (atomic loads). */
    struct Stats
    {
        std::uint64_t hits = 0;   //!< Valid entries served.
        std::uint64_t misses = 0; //!< Absent entries.
        std::uint64_t rejected = 0; //!< Entries present but failing a
                                    //!< validation rung (counted as
                                    //!< misses too).
        std::uint64_t writes = 0;        //!< Entries published.
        std::uint64_t writeFailures = 0; //!< Failed publishes.
    };

    Stats stats() const;

    /** Entry file name for @p fingerprint: "<16 hex digits>.oprog". */
    static std::string entryName(std::uint64_t fingerprint);

    /** Full path of the entry for @p fingerprint. */
    std::string entryPath(std::uint64_t fingerprint) const;

  private:
    std::string dir_;
    bool available_ = false;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> writeFailures_{0};
    std::atomic<std::uint64_t> tempSeq_{0};
};

} // namespace orianna::runtime
