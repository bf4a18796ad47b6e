/**
 * @file
 * Prefetch Buffer tests: install/merge semantics, demand cancellation,
 * forward-first issue order and rate limiting (its Table I storage is
 * checked with the rest of Gaze's in test_harness).
 */

#include <gtest/gtest.h>

#include "prefetchers/prefetch_buffer.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

PfPattern
emptyPattern(uint32_t blocks = 64)
{
    return PfPattern(blocks, PfLevel::None);
}

struct Collector
{
    std::vector<test::IssuedPf> out;
    bool accept = true;

    bool
    operator()(Addr a, uint32_t fill, bool virt)
    {
        if (!accept)
            return false;
        out.push_back({a, fill, virt});
        return true;
    }
};

TEST(MergePfLevel, StrongerLevelWins)
{
    EXPECT_EQ(mergePfLevel(PfLevel::None, PfLevel::L2), PfLevel::L2);
    EXPECT_EQ(mergePfLevel(PfLevel::L2, PfLevel::None), PfLevel::L2);
    EXPECT_EQ(mergePfLevel(PfLevel::L1, PfLevel::L2), PfLevel::L1);
    EXPECT_EQ(mergePfLevel(PfLevel::L2, PfLevel::L1), PfLevel::L1);
    EXPECT_EQ(mergePfLevel(PfLevel::None, PfLevel::None), PfLevel::None);
}

TEST(PrefetchBuffer, InstallAndDrainAll)
{
    PrefetchBuffer pb(PrefetchBufferParams{});
    PfPattern pat = emptyPattern();
    pat[3] = PfLevel::L1;
    pat[10] = PfLevel::L2;
    pb.install(0x10000, pat, 0);
    EXPECT_EQ(pb.pendingCount(), 2u);

    Collector c;
    for (int i = 0; i < 10; ++i)
        pb.drain(c);
    ASSERT_EQ(c.out.size(), 2u);
    EXPECT_EQ(pb.pendingCount(), 0u);
    EXPECT_EQ(c.out[0].addr, 0x10000u + 3 * 64);
    EXPECT_EQ(c.out[0].fillLevel, 1u);
    EXPECT_EQ(c.out[1].addr, 0x10000u + 10 * 64);
    EXPECT_EQ(c.out[1].fillLevel, 2u);
}

TEST(PrefetchBuffer, RateLimitPerDrain)
{
    PrefetchBufferParams p;
    p.issuePerCycle = 2;
    PrefetchBuffer pb(p);
    PfPattern pat = emptyPattern();
    for (int i = 0; i < 10; ++i)
        pat[i] = PfLevel::L1;
    pb.install(0x20000, pat, 0);

    Collector c;
    EXPECT_EQ(pb.drain(c), 2u);
    EXPECT_EQ(c.out.size(), 2u);
    EXPECT_EQ(pb.pendingCount(), 8u);
}

TEST(PrefetchBuffer, ForwardFirstFromStartOffset)
{
    PrefetchBuffer pb(PrefetchBufferParams{});
    PfPattern pat = emptyPattern();
    pat[2] = PfLevel::L1;
    pat[30] = PfLevel::L1;
    pat[62] = PfLevel::L1;
    pb.install(0x30000, pat, 29); // issue order: 30, 62, wrap to 2

    Collector c;
    for (int i = 0; i < 5; ++i)
        pb.drain(c);
    ASSERT_EQ(c.out.size(), 3u);
    EXPECT_EQ(c.out[0].addr, 0x30000u + 30 * 64);
    EXPECT_EQ(c.out[1].addr, 0x30000u + 62 * 64);
    EXPECT_EQ(c.out[2].addr, 0x30000u + 2 * 64);
}

TEST(PrefetchBuffer, DemandCancelsPending)
{
    PrefetchBuffer pb(PrefetchBufferParams{});
    PfPattern pat = emptyPattern();
    pat[5] = PfLevel::L1;
    pat[6] = PfLevel::L1;
    pb.install(0x40000, pat, 0);
    pb.onDemand(0x40000, 5);
    EXPECT_EQ(pb.pendingCount(), 1u);

    Collector c;
    for (int i = 0; i < 5; ++i)
        pb.drain(c);
    ASSERT_EQ(c.out.size(), 1u);
    EXPECT_EQ(c.out[0].addr, 0x40000u + 6 * 64);
}

TEST(PrefetchBuffer, MergePromotesLevels)
{
    PrefetchBuffer pb(PrefetchBufferParams{});
    PfPattern first = emptyPattern();
    first[8] = PfLevel::L2;
    pb.install(0x50000, first, 0);

    PfPattern promo = emptyPattern();
    promo[8] = PfLevel::L1; // stage-2 promotion
    promo[9] = PfLevel::L1; // new pending bit
    pb.install(0x50000, promo, 0);
    EXPECT_EQ(pb.pendingCount(), 2u);

    Collector c;
    for (int i = 0; i < 5; ++i)
        pb.drain(c);
    ASSERT_EQ(c.out.size(), 2u);
    EXPECT_EQ(c.out[0].fillLevel, 1u); // upgraded to L1
    EXPECT_EQ(c.out[1].fillLevel, 1u);
}

TEST(PrefetchBuffer, RejectedIssueStaysPending)
{
    PrefetchBuffer pb(PrefetchBufferParams{});
    PfPattern pat = emptyPattern();
    pat[1] = PfLevel::L1;
    pb.install(0x60000, pat, 0);

    Collector c;
    c.accept = false;
    EXPECT_EQ(pb.drain(c), 0u);
    EXPECT_EQ(pb.pendingCount(), 1u);
    c.accept = true;
    EXPECT_EQ(pb.drain(c), 1u);
}

TEST(PrefetchBuffer, EmptyPatternIsNotStored)
{
    PrefetchBuffer pb(PrefetchBufferParams{});
    pb.install(0x70000, emptyPattern(), 0);
    EXPECT_EQ(pb.pendingCount(), 0u);
    Collector c;
    EXPECT_EQ(pb.drain(c), 0u);
}

TEST(PrefetchBuffer, VirtualFlagPropagates)
{
    PrefetchBufferParams p;
    p.virtualSpace = false;
    PrefetchBuffer pb(p);
    PfPattern pat = emptyPattern();
    pat[0] = PfLevel::L1;
    pb.install(0x80000, pat, 0);
    Collector c;
    pb.drain(c);
    ASSERT_EQ(c.out.size(), 1u);
    EXPECT_FALSE(c.out[0].virt);
}

TEST(PrefetchBuffer, SmallRegionGeometry)
{
    PrefetchBufferParams p;
    p.blocksPerRegion = 8; // 512B regions
    PrefetchBuffer pb(p);
    PfPattern pat(8, PfLevel::None);
    pat[7] = PfLevel::L1;
    pb.install(0x1000, pat, 0);
    Collector c;
    pb.drain(c);
    ASSERT_EQ(c.out.size(), 1u);
    EXPECT_EQ(c.out[0].addr, 0x1000u + 7 * 64);
}

TEST(PrefetchBuffer, CapacityEvictionDropsOldRegion)
{
    PrefetchBufferParams p;
    p.entries = 8;
    p.ways = 8; // fully associative, 8 regions max
    PrefetchBuffer pb(p);
    for (int r = 0; r < 9; ++r) {
        PfPattern pat = emptyPattern();
        pat[0] = PfLevel::L1;
        pb.install(0x100000 + Addr(r) * 4096, pat, 0);
    }
    // Oldest region's entry was evicted; at most 8 remain pending.
    EXPECT_LE(pb.pendingCount(), 8u);
}

} // namespace
} // namespace gaze
