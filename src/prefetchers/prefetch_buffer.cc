#include "prefetchers/prefetch_buffer.hh"

#include <algorithm>

#include "common/log.hh"

namespace gaze
{

PrefetchBuffer::PrefetchBuffer(const PrefetchBufferParams &params)
    : cfg(params),
      table(std::max(1u, params.entries / params.ways), params.ways)
{
    GAZE_ASSERT(cfg.entries % cfg.ways == 0, "PB geometry mismatch");
    GAZE_ASSERT(cfg.blocksPerRegion >= 2, "degenerate region");
}

uint64_t
PrefetchBuffer::setOf(Addr region_base) const
{
    uint64_t region_num =
        region_base / (uint64_t(cfg.blocksPerRegion) * blockSize);
    return region_num & (table.sets() - 1);
}

void
PrefetchBuffer::install(Addr region_base, const PfPattern &pattern,
                        uint32_t start_offset)
{
    GAZE_ASSERT(pattern.size() == cfg.blocksPerRegion,
                "pattern size mismatch");

    uint64_t set = setOf(region_base);
    Entry *e = table.find(set, region_base);
    if (e) {
        // Merge: promotions upgrade levels; count new pending bits.
        for (uint32_t i = 0; i < cfg.blocksPerRegion; ++i) {
            PfLevel merged = mergePfLevel(e->pattern[i], pattern[i]);
            if (merged != e->pattern[i]) {
                if (e->pattern[i] == PfLevel::None)
                    ++e->pending;
                e->pattern[i] = merged;
            }
        }
        return;
    }

    // Count pending bits before claiming a slot: an all-None pattern
    // installs nothing and must not evict a live region.
    uint32_t pend = 0;
    for (auto l : pattern)
        pend += l != PfLevel::None;
    if (pend == 0)
        return;

    // Claim the victim way and rebuild its payload in place: the
    // evicted entry's pattern vector keeps its heap capacity, so
    // steady-state installs allocate nothing.
    Entry &slot = *table.acquire(set, region_base).data;
    slot.pattern.assign(pattern.begin(), pattern.end());
    slot.pending = pend;
    slot.cursor = start_offset % cfg.blocksPerRegion;
    issueQueue.push_back(region_base);
}

void
PrefetchBuffer::onDemand(Addr region_base, uint32_t offset)
{
    if (offset >= cfg.blocksPerRegion)
        return;
    Entry *e = table.find(setOf(region_base), region_base,
                          /*touch=*/false);
    if (!e)
        return;
    if (e->pattern[offset] != PfLevel::None) {
        e->pattern[offset] = PfLevel::None;
        GAZE_ASSERT(e->pending > 0, "PB pending underflow");
        --e->pending;
    }
}

uint32_t
PrefetchBuffer::nextPendingOffset(Entry &e) const
{
    // Forward-first scan from the cursor, wrapping once.
    for (uint32_t n = 0; n < cfg.blocksPerRegion; ++n) {
        uint32_t off = (e.cursor + n) % cfg.blocksPerRegion;
        if (e.pattern[off] != PfLevel::None) {
            e.cursor = off;
            return off;
        }
    }
    GAZE_PANIC("nextPendingOffset on empty entry");
}

size_t
PrefetchBuffer::pendingCount() const
{
    size_t n = 0;
    const_cast<LruTable<Entry> &>(table).forEach(
        [&](uint64_t, uint64_t, Entry &e) { n += e.pending; });
    return n;
}

} // namespace gaze
