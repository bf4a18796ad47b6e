/**
 * @file
 * Gaze's Pattern History Module (PHM, §III-D): the Pattern History
 * Table for normal spatial patterns (case 2), and the streaming-
 * detection pair — Dense PC Table + Dense Counter — for spatial
 * streaming (case 1).
 *
 * The PHT encodes the paper's key idea structurally: it is *indexed*
 * by the trigger offset and *tagged* by the second offset, so the
 * temporal order of the first two accesses is verified by the table
 * lookup itself, with zero extra metadata (§III-B).
 */

#pragma once

#include <array>
#include <cstdint>

#include "common/bitset.hh"
#include "common/lru_table.hh"
#include "common/sat_counter.hh"
#include "core/gaze_config.hh"

namespace gaze
{

/** An ordered list of the first few distinct offsets of a region. */
struct InitialAccesses
{
    std::array<uint16_t, 4> offset{};
    uint32_t count = 0;

    void
    push(uint16_t off)
    {
        if (count < offset.size())
            offset[count] = off;
        ++count;
    }

    uint16_t trigger() const { return offset[0]; }
    uint16_t second() const { return offset[1]; }
};

/**
 * Pattern History Table: (trigger, second, ...) -> footprint bit
 * vector. Generalized to numInitialAccesses offsets for the Fig. 4
 * study; the default (2) gives the paper's index/tag split.
 */
class PatternHistoryTable
{
  public:
    explicit PatternHistoryTable(const GazeConfig &config);

    /** Learn (insert or overwrite) the footprint for an event. */
    void learn(const InitialAccesses &event, const Bitset &footprint);

    /**
     * Strict lookup: every one of the first n offsets must match in
     * order. Returns the stored footprint or nullptr.
     */
    const Bitset *lookup(const InitialAccesses &event);

    /**
     * Approximate lookup for the strictMatch=false ablation: on a tag
     * miss, fall back to the pattern in the last valid way of the
     * indexed set, in way order (trigger matches, later offsets may
     * not). Way order is not recency: the pick ignores LRU state.
     */
    const Bitset *lookupApprox(const InitialAccesses &event);

    /** Entries currently valid (tests). */
    size_t occupancy() const;

  private:
    uint64_t indexOf(const InitialAccesses &event) const;
    uint64_t tagOf(const InitialAccesses &event) const;

    GazeConfig cfg;
    LruTable<Bitset> table;
};

/**
 * Streaming detector: DPCT remembers PCs that recently produced dense
 * (entirely requested) streaming regions; the global 3-bit DC tracks
 * how often streaming-case regions have been dense lately.
 */
class StreamingDetector
{
  public:
    explicit StreamingDetector(const GazeConfig &config);

    /** Learning: a streaming-case region finished fully dense. */
    void onDenseRegion(uint64_t hashed_pc);

    /** Learning: a streaming-case region finished sparse. */
    void onSparseRegion();

    /** Is this PC recorded as a recent dense PC? */
    bool isDensePc(uint64_t hashed_pc) const;

    /** Dense counter saturated ("DC full")? */
    bool counterFull() const { return dc.full(); }

    /** Dense counter above half threshold ("DC > 2")? */
    bool counterAboveHalf() const { return dc.aboveHalf(); }

    uint32_t counterValue() const { return dc.value(); }

  private:
    struct Empty
    {
    };

    LruTable<Empty> dpct; ///< fully associative: 1 set, N ways
    DenseCounter dc;
};

} // namespace gaze
