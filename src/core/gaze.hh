/**
 * @file
 * The Gaze spatial prefetcher (the paper's contribution, §III).
 *
 * Structure (Fig. 3b):
 *  - Filter Table (FT): holds regions seen exactly once, filtering
 *    one-bit footprints and capturing the trigger offset + PC.
 *  - Accumulation Table (AT): tracks active regions' footprints, the
 *    ordered first accesses, the last two offsets (for the region-
 *    local stride mechanism) and the stride flag.
 *  - Pattern History Module: PHT (trigger-indexed, second-tagged
 *    footprints) plus the streaming detector (DPCT + DC).
 *  - Prefetch Buffer (PB): pending per-region prefetch patterns with
 *    rate-limited issue and promotion merging.
 *
 * Flow: a region's second distinct access promotes FT -> AT and sends
 * (trigger, second, PC) to the PHM, which either applies the two-stage
 * streaming policy (trigger==0 && second==1) or does a strict PHT
 * match. Deactivation (block eviction or AT replacement) sends the
 * accumulated footprint back to the PHM for learning.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bitset.hh"
#include "common/lru_table.hh"
#include "core/gaze_config.hh"
#include "core/pattern_history.hh"
#include "prefetchers/prefetch_buffer.hh"
#include "sim/prefetcher.hh"

namespace gaze
{

/** Decision/structure counters exposed for tests and ablation benches. */
struct GazeCounters
{
    uint64_t regionsActivated = 0;   ///< FT -> AT promotions
    uint64_t predictions = 0;        ///< PHM consultations
    uint64_t phtHits = 0;
    uint64_t phtMisses = 0;
    uint64_t streamFullAggr = 0;     ///< stage 1: 16->L1 + rest->L2
    uint64_t streamHalfAggr = 0;     ///< stage 1: 16->L2 only
    uint64_t streamNoPrefetch = 0;   ///< stage 1: refrain
    uint64_t stridePromotions = 0;   ///< stage 2 / backup activations
    uint64_t learnedDense = 0;
    uint64_t learnedSparse = 0;
    uint64_t learnedPht = 0;
    uint64_t evictionDeactivations = 0;
};

/** One Table I row: a Gaze structure, its field list, its bits. */
struct GazeStorageRow
{
    std::string structure;
    std::string fields;
    uint64_t bits = 0;
};

/**
 * Table I, field by field: FT, AT, PHT, DPCT (+ DC) and PB. The one
 * owner of Gaze's field widths; GazePrefetcher::storageBits() is the
 * sum of these rows.
 */
std::vector<GazeStorageRow> gazeStorageBreakdown(const GazeConfig &cfg);

/** Gaze, attachable at L1D (virtual-address regions) or L2C. */
class GazePrefetcher : public Prefetcher
{
  public:
    explicit GazePrefetcher(const GazeConfig &config = {});

    std::string name() const override;

    void attach(const PrefetcherContext &ctx) override;
    void onAccess(const DemandAccess &access) override;
    void onEvict(Addr paddr, Addr vaddr) override;
    void tick() override;
    bool busy() const override;
    uint64_t storageBits() const override;

    const GazeConfig &config() const { return cfg; }
    const GazeCounters &counters() const { return ctr; }

    /** Introspection for unit tests. */
    size_t ftOccupancy() const;
    size_t atOccupancy() const;
    const PatternHistoryTable &pht() const { return phtTable; }
    const StreamingDetector &streaming() const { return detector; }
    PrefetchBuffer &prefetchBuffer() { return *pb; }

  private:
    struct FtEntry
    {
        uint16_t trigger = 0;
        uint64_t hashedPc = 0;
    };

    struct AtEntry
    {
        Bitset footprint{64};
        InitialAccesses first;
        uint64_t hashedPc = 0;
        uint16_t last = 0;
        uint16_t penult = 0;
        bool haveTwo = false;   ///< last & penult both valid
        bool strideFlag = false;
        bool predicted = false;
    };

    /** Region-tracking address: virtual at L1D, physical below. */
    Addr trackAddr(const DemandAccess &a) const;

    void handleAtHit(Addr region_base, AtEntry &e, uint32_t off);
    void activateRegion(Addr region_base, uint64_t rnum, uint32_t off,
                        const FtEntry &ft);

    /** Consult the PHM and install a prefetch pattern (Fig. 3c). */
    void predict(Addr region_base, AtEntry &e);

    /** Region deactivated: send the footprint to the PHM (Fig. 3a). */
    void learn(const AtEntry &e);

    /** Stage-2 promotion / backup stride issue around @p off. */
    void strideIssue(Addr region_base, uint32_t off, int64_t stride);

    /** Drop pattern bits for blocks the region already demanded. */
    void maskAccessed(PfPattern &pattern, const Bitset &footprint) const;

    bool
    isStreamingCase(const InitialAccesses &f) const
    {
        return f.count >= 2 && f.offset[0] == 0 && f.offset[1] == 1;
    }

    GazeConfig cfg;
    uint32_t blocks;
    bool useVirtual = true;

    LruTable<FtEntry> ft;
    LruTable<AtEntry> at;
    PatternHistoryTable phtTable;
    StreamingDetector detector;
    std::optional<PrefetchBuffer> pb;

    /**
     * Reused pattern scratch for the three install paths: patterns are
     * built, handed to PrefetchBuffer::install (which copies in
     * place), and dead immediately after — one buffer serves all
     * three without per-prediction allocation.
     */
    PfPattern patScratch;

    GazeCounters ctr;
};

} // namespace gaze
