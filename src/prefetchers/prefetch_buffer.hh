/**
 * @file
 * The Prefetch Buffer (PB) shared by all bit-pattern spatial prefetchers
 * (SMS, Bingo, DSPatch, PMP, Gaze). Per the paper (§IV-A2) the PBs of
 * all evaluated spatial schemes are fine-tuned and uniform, so one
 * implementation serves everyone.
 *
 * The PB stores, per region, a 2-bit prefetch state for each block
 * offset (none / to-L1D / to-L2C / LLC-unused) and drains a bounded
 * number of prefetches per cycle, which both smooths issue bandwidth
 * and lets later pattern *promotions* (Gaze's stage 2) merge into a
 * pending pattern before it is issued.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/lru_table.hh"
#include "common/ring_buffer.hh"
#include "common/types.hh"

namespace gaze
{

/** Per-offset prefetch target level (2-bit state in Table I). */
enum class PfLevel : uint8_t
{
    None = 0,
    L1 = 1,
    L2 = 2,
    Llc = 3 ///< representable but unused, as in the paper
};

/**
 * Merge two target levels: a block requested for L1 by one pattern and
 * L2 by another is prefetched to L1 (promotion keeps the stronger).
 */
constexpr PfLevel
mergePfLevel(PfLevel a, PfLevel b)
{
    if (a == PfLevel::None)
        return b;
    if (b == PfLevel::None)
        return a;
    return static_cast<uint8_t>(a) <= static_cast<uint8_t>(b) ? a : b;
}

/** A region's prefetch pattern: one PfLevel per block offset. */
using PfPattern = std::vector<PfLevel>;

struct PrefetchBufferParams
{
    uint32_t entries = 32;
    uint32_t ways = 8;

    /** Prefetch issue bandwidth per cycle. */
    uint32_t issuePerCycle = 2;

    /** Blocks per region (64 for 4KB regions). */
    uint32_t blocksPerRegion = 64;

    /** Address space of the stored regions (affects issue addresses). */
    bool virtualSpace = true;
};

/**
 * The buffer itself. The owner drains it each cycle via drain(),
 * providing the issue callable so the PB stays decoupled from the
 * Prefetcher base class.
 */
class PrefetchBuffer
{
  public:
    explicit PrefetchBuffer(const PrefetchBufferParams &params);

    /**
     * Install (or merge into) the pattern for the region based at
     * @p region_base. @p start_offset biases issue order: blocks at
     * and after it go first (forward-first), which is what streaming
     * wants. Offsets whose level is None are ignored.
     */
    void install(Addr region_base, const PfPattern &pattern,
                 uint32_t start_offset);

    /**
     * A demand touched (region, offset): cancel the pending prefetch
     * for that block — issuing it now would be pure overhead.
     */
    void onDemand(Addr region_base, uint32_t offset);

    /**
     * Issue up to issuePerCycle pending prefetches through @p issue,
     * a callable bool(Addr addr, uint32_t fill_level, bool virt).
     * Returns the number issued. Rejected issues (queue full) stay
     * pending.
     */
    template <typename IssueFn>
    uint32_t
    drain(IssueFn &&issue)
    {
        uint32_t issued = 0;
        while (issued < cfg.issuePerCycle && !issueQueue.empty()) {
            Addr base = issueQueue.front();
            Entry *e = table.find(setOf(base), base, /*touch=*/false);
            if (!e || e->pending == 0) {
                issueQueue.pop_front();
                continue;
            }
            bool progressed = false;
            while (issued < cfg.issuePerCycle && e->pending > 0) {
                uint32_t off = nextPendingOffset(*e);
                PfLevel lvl = e->pattern[off];
                Addr target = base + Addr(off) * blockSize;
                uint32_t fill = lvl == PfLevel::L1 ? 1u : 2u;
                if (!issue(target, fill, cfg.virtualSpace))
                    return issued; // PQ full; retry next cycle
                e->pattern[off] = PfLevel::None;
                --e->pending;
                ++issued;
                progressed = true;
            }
            if (e->pending == 0)
                issueQueue.pop_front();
            if (!progressed)
                break;
        }
        return issued;
    }

    /** Pending prefetches across all regions (tests). */
    size_t pendingCount() const;

    /**
     * True while drain() could still make progress (or pop stale
     * queue entries): the owner's busy() signal for the event engine.
     */
    bool drainPending() const { return !issueQueue.empty(); }

    const PrefetchBufferParams &params() const { return cfg; }

  private:
    struct Entry
    {
        PfPattern pattern;
        uint32_t pending = 0;
        uint32_t cursor = 0; ///< next offset to consider, wraps
    };

    uint64_t setOf(Addr region_base) const;
    uint32_t nextPendingOffset(Entry &e) const;

    PrefetchBufferParams cfg;
    LruTable<Entry> table;
    RingBuffer<Addr> issueQueue;
};

} // namespace gaze
