#include "core/pattern_history.hh"

namespace gaze
{

PatternHistoryTable::PatternHistoryTable(const GazeConfig &config)
    : cfg(config), table(config.phtSets, config.phtWays)
{
    GAZE_ASSERT(isPowerOfTwo(cfg.phtSets), "PHT sets not a power of two");
}

uint64_t
PatternHistoryTable::indexOf(const InitialAccesses &event) const
{
    return event.trigger() % cfg.phtSets;
}

uint64_t
PatternHistoryTable::tagOf(const InitialAccesses &event) const
{
    // The tag concatenates the offsets beyond the first (the paper's
    // second-offset tag when n == 2), plus any trigger bits that did
    // not fit in the index, so correctness is geometry-independent.
    uint64_t tag = event.trigger() / cfg.phtSets;
    uint32_t n = cfg.numInitialAccesses;
    for (uint32_t i = 1; i < n && i < event.offset.size(); ++i)
        tag = (tag << 12) | (uint64_t(event.offset[i]) + 1);
    return tag;
}

void
PatternHistoryTable::learn(const InitialAccesses &event,
                           const Bitset &footprint)
{
    table.insert(indexOf(event), tagOf(event), footprint);
}

const Bitset *
PatternHistoryTable::lookup(const InitialAccesses &event)
{
    return table.find(indexOf(event), tagOf(event));
}

const Bitset *
PatternHistoryTable::lookupApprox(const InitialAccesses &event)
{
    if (const Bitset *exact = table.find(indexOf(event), tagOf(event)))
        return exact;
    // Partial match: any pattern whose trigger offset matches, i.e.
    // any valid way of the indexed set. The last valid way in way
    // order wins; that is not the most recently used one.
    const Bitset *last = nullptr;
    table.forEachInSet(indexOf(event),
                       [&](uint64_t, Bitset &fp) { last = &fp; });
    return last;
}

size_t
PatternHistoryTable::occupancy() const
{
    return table.occupancy();
}

StreamingDetector::StreamingDetector(const GazeConfig &config)
    : dpct(1, config.dpctEntries)
{
}

void
StreamingDetector::onDenseRegion(uint64_t hashed_pc)
{
    dpct.insert(0, hashed_pc, Empty{});
    dc.onDense();
}

void
StreamingDetector::onSparseRegion()
{
    dc.onSparse();
}

bool
StreamingDetector::isDensePc(uint64_t hashed_pc) const
{
    return dpct.contains(0, hashed_pc);
}

} // namespace gaze
