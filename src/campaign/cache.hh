/**
 * @file
 * Content-addressed on-disk result cache for campaign cells. Each
 * finished simulation (prefetcher cell or no-prefetch baseline) is
 * one small JSON file named by the 16-hex-digit FNV-1a hash of its
 * canonical cell text (harness/cell_key), holding the RunSummary the
 * metric math needs plus the full text for collision detection and
 * auditability.
 *
 * Writes are atomic (write to a pid-suffixed temp file, then rename),
 * so a killed campaign never leaves a half-written cell: on resume
 * the cell misses and is simply recomputed. Lookups verify both the
 * schema version and the stored canonical text, so a hash collision
 * or a stale-schema file reads as a miss, never as a wrong result.
 */

#pragma once

#include <cstdint>
#include <string>

#include "harness/metrics.hh"

namespace gaze
{

/** One cached simulation outcome. */
struct CellRecord
{
    std::string key; ///< canonical cell text (must match on lookup)
    RunSummary summary;
    double seconds = 0.0; ///< wall time of the sim that produced it
};

/** A directory of content-addressed CellRecord files. */
class ResultCache
{
  public:
    /**
     * A cache in @p dir. Touches nothing on disk: a lookup in a
     * directory that does not exist is a plain miss, and the first
     * store() creates it (read-only commands never do).
     */
    explicit ResultCache(std::string dir);

    /** The cell file for @p hash: "<dir>/<16 hex>.json". */
    std::string path(uint64_t hash) const;

    /**
     * Load the cell for (@p hash, @p key). Returns false when the
     * file is absent, unparseable, schema-stale, or stores a
     * different canonical text (all of which mean "recompute"); a
     * non-null @p why receives the reason for everything but a plain
     * miss.
     */
    bool lookup(uint64_t hash, const std::string &key, CellRecord *out,
                std::string *why = nullptr) const;

    /**
     * Atomically persist @p rec under @p hash (write-then-rename),
     * creating the directory (and parents) when the first write
     * fails; fatal if that is impossible.
     */
    void store(uint64_t hash, const CellRecord &rec) const;

    const std::string &directory() const { return dir; }

  private:
    std::string dir;
};

} // namespace gaze
