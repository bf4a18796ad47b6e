/**
 * @file
 * Bingo spatial data prefetcher (HPCA'19). TAGE-inspired long/short
 * event co-association: the PHT is indexed by the *short* event
 * (PC+Offset) and each entry is additionally tagged with the *long*
 * event (PC+Address). A lookup first tries the exact long-event match
 * (high accuracy); failing that, every short-event match in the set
 * votes, and blocks pass by vote share (approximate match, higher
 * coverage).
 */

#pragma once

#include <vector>

#include "prefetchers/spatial_base.hh"

namespace gaze
{

struct BingoParams
{
    SpatialBaseParams base; ///< 2KB regions (Table IV)

    /** 16k-entry PHT as in Table IV's enhanced configuration. */
    uint32_t phtSets = 1024;
    uint32_t phtWays = 16;

    /** Vote share needed to prefetch a block to L1D / to L2C. */
    double l1VoteShare = 0.50;
    double l2VoteShare = 0.25;
};

/** Bingo: exact match to L1D, voted approximate match split L1/L2. */
class BingoPrefetcher : public SpatialPatternPrefetcher
{
  public:
    explicit BingoPrefetcher(const BingoParams &params = {});

    std::string name() const override { return "bingo"; }
    uint64_t storageBits() const override;

    uint64_t exactMatches() const { return exactHits; }
    uint64_t approxMatches() const { return approxHits; }

  protected:
    void predictOnTrigger(const RegionInfo &info) override;
    void learnOnEnd(const RegionInfo &info) override;

  private:
    /**
     * Ways are keyed by the unique long event; the short event is a
     * payload field so several long events sharing one short event can
     * coexist in a set (the substrate of approximate matching).
     */
    struct Entry
    {
        uint64_t shortTag = 0;
        Bitset footprint{32};
    };

    uint64_t shortKey(const RegionInfo &info) const;
    uint64_t longKey(const RegionInfo &info) const;

    BingoParams cfg;
    LruTable<Entry> pht;

    /**
     * Reused per-trigger scratch: the approximate-match footprints
     * (pointers into pht, dead after the trigger) and their per-block
     * vote counts, so a prediction allocates nothing.
     */
    std::vector<const Bitset *> approx;
    std::vector<uint32_t> votes;

    uint64_t exactHits = 0;
    uint64_t approxHits = 0;
};

} // namespace gaze
