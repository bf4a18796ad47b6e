/**
 * @file
 * Cache model tests against a scripted lower level: hit/miss timing,
 * MSHR merging and back-pressure, writeback behaviour, prefetch fill
 * targeting, the useful/useless/late accounting the paper's
 * metrics depend on, and the full-MSHR sleep's lazily accounted
 * stall counters against a cache ticked on every cycle.
 */

#include <gtest/gtest.h>

#include "sim/cache.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

using test::FakeMemory;
using test::FakeReceiver;

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
        : mem(&clock, /*latency=*/50)
    {
        CacheParams p;
        p.name = "L1-test";
        p.level = levelL1;
        p.sets = 16;
        p.ways = 2;
        p.latency = 5;
        p.mshrs = 4;
        p.rqSize = 8;
        p.pqSize = 4;
        cache = std::make_unique<Cache>(p, &mem, &clock);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            cache->tick();
            mem.tick();
            ++clock;
        }
    }

    Request
    demand(Addr a, FillReceiver *recv, uint64_t token = 0,
           AccessType t = AccessType::Load)
    {
        Request r;
        r.paddr = a;
        r.vaddr = a;
        r.pc = 0x400000;
        r.type = t;
        r.fillLevel = levelL1;
        r.requester = recv;
        r.token = token;
        r.issueCycle = clock;
        return r;
    }

    Cycle clock = 0;
    FakeMemory mem;
    std::unique_ptr<Cache> cache;
    FakeReceiver rx;
};

TEST_F(CacheTest, MissGoesToLowerAndFills)
{
    ASSERT_TRUE(cache->sendRequest(demand(0x1000, &rx)));
    run(60);
    ASSERT_EQ(rx.fills.size(), 1u);
    EXPECT_TRUE(cache->present(0x1000));
    EXPECT_EQ(cache->stats().loadMiss, 1u);
    ASSERT_FALSE(mem.received.empty());
    EXPECT_EQ(mem.received[0].paddr, 0x1000u);
}

TEST_F(CacheTest, HitRespondsAfterLatencyWithoutLowerTraffic)
{
    cache->sendRequest(demand(0x1000, &rx));
    run(60);
    size_t lower_before = mem.received.size();
    rx.fills.clear();

    Cycle start = clock;
    cache->sendRequest(demand(0x1000, &rx));
    run(10);
    ASSERT_EQ(rx.fills.size(), 1u);
    EXPECT_EQ(mem.received.size(), lower_before);
    EXPECT_EQ(cache->stats().loadHit, 1u);
    // Response must take at least the configured access latency.
    (void)start;
}

TEST_F(CacheTest, SameBlockMissesMergeInMshr)
{
    cache->sendRequest(demand(0x2000, &rx, 1));
    cache->sendRequest(demand(0x2030, &rx, 2)); // same 64B block
    run(2);
    EXPECT_EQ(cache->mshrOccupancy(), 1u);
    EXPECT_EQ(cache->stats().mshrMerge, 1u);
    run(70);
    EXPECT_EQ(rx.fills.size(), 2u); // both waiters woken
}

TEST_F(CacheTest, MshrFullStallsReads)
{
    // 4 MSHRs; the 5th distinct-block miss must stall, not be lost.
    for (int i = 0; i < 5; ++i)
        cache->sendRequest(demand(0x10000 + i * 64, &rx, i));
    run(3);
    EXPECT_EQ(cache->mshrOccupancy(), 4u);
    EXPECT_GT(cache->stats().mshrFullStall, 0u);
    run(120);
    EXPECT_EQ(rx.fills.size(), 5u); // stalled one completed later
}

TEST_F(CacheTest, RfoMarksDirtyAndWritesBack)
{
    cache->sendRequest(demand(0x3000, &rx, 0, AccessType::Rfo));
    run(60);
    EXPECT_TRUE(cache->present(0x3000));

    // Evict it: the set has 2 ways; fill two more blocks mapping to
    // the same set (sets=16 -> stride 16*64 = 0x400).
    cache->sendRequest(demand(0x3000 + 0x400, &rx, 1));
    cache->sendRequest(demand(0x3000 + 0x800, &rx, 2));
    run(120);
    EXPECT_FALSE(cache->present(0x3000));
    EXPECT_EQ(mem.writebacks, 1u);
    EXPECT_EQ(cache->stats().writebacksSent, 1u);
}

TEST_F(CacheTest, CleanEvictionHasNoWriteback)
{
    cache->sendRequest(demand(0x3000, &rx, 0));
    run(60);
    cache->sendRequest(demand(0x3000 + 0x400, &rx, 1));
    cache->sendRequest(demand(0x3000 + 0x800, &rx, 2));
    run(120);
    EXPECT_FALSE(cache->present(0x3000));
    EXPECT_EQ(mem.writebacks, 0u);
}

TEST_F(CacheTest, WritebackMissAllocatesDirectly)
{
    Request wb;
    wb.paddr = 0x4000;
    wb.type = AccessType::Writeback;
    wb.fillLevel = levelL1;
    ASSERT_TRUE(cache->sendRequest(wb));
    run(3);
    EXPECT_TRUE(cache->present(0x4000));
    EXPECT_EQ(cache->stats().wbMiss, 1u);
    // No fetch from below: the line arrived complete.
    EXPECT_TRUE(mem.received.empty());
}

TEST_F(CacheTest, PrefetchFillsWithPrefetchBit)
{
    ASSERT_TRUE(cache->issuePrefetch(0x5000, levelL1, /*virt=*/false, 0));
    run(60);
    EXPECT_TRUE(cache->present(0x5000));
    EXPECT_EQ(cache->stats().pfFilled, 1u);
    EXPECT_EQ(cache->stats().pfIssued, 1u);
}

TEST_F(CacheTest, PrefetchedBlockDemandHitCountsUseful)
{
    cache->issuePrefetch(0x5000, levelL1, false, 0);
    run(60);
    cache->sendRequest(demand(0x5000, &rx));
    run(10);
    EXPECT_EQ(cache->stats().pfUseful, 1u);
    // A second hit must not double count.
    cache->sendRequest(demand(0x5000, &rx));
    run(10);
    EXPECT_EQ(cache->stats().pfUseful, 1u);
}

TEST_F(CacheTest, UnusedPrefetchEvictionCountsUseless)
{
    cache->issuePrefetch(0x5000, levelL1, false, 0);
    run(60);
    cache->sendRequest(demand(0x5000 + 0x400, &rx, 1));
    cache->sendRequest(demand(0x5000 + 0x800, &rx, 2));
    run(120);
    EXPECT_FALSE(cache->present(0x5000));
    EXPECT_EQ(cache->stats().pfUseless, 1u);
    EXPECT_EQ(cache->stats().pfUseful, 0u);
}

TEST_F(CacheTest, DemandOnInflightPrefetchCountsLate)
{
    cache->issuePrefetch(0x6000, levelL1, false, 0);
    run(5); // prefetch in flight, not yet filled
    cache->sendRequest(demand(0x6000, &rx));
    run(60);
    EXPECT_EQ(cache->stats().pfLate, 1u);
    ASSERT_EQ(rx.fills.size(), 1u);
    // Late-converted fills are not marked as prefetch fills...
    EXPECT_EQ(cache->stats().pfFilled, 0u);
    // ...and a subsequent hit is not pfUseful.
    cache->sendRequest(demand(0x6000, &rx));
    run(10);
    EXPECT_EQ(cache->stats().pfUseful, 0u);
}

TEST_F(CacheTest, RedundantPrefetchDroppedOnHit)
{
    cache->sendRequest(demand(0x7000, &rx));
    run(60);
    cache->issuePrefetch(0x7000, levelL1, false, 0);
    run(5);
    EXPECT_EQ(cache->stats().pfDroppedHit, 1u);
    EXPECT_EQ(cache->stats().pfFilled, 0u);
}

TEST_F(CacheTest, PrefetchQueueFullDrops)
{
    // pqSize = 4: the 5th issue in one cycle must be rejected.
    for (int i = 0; i < 5; ++i)
        cache->issuePrefetch(0x8000 + i * 64, levelL1, false, 0);
    EXPECT_EQ(cache->stats().pfDroppedFull, 1u);
    EXPECT_EQ(cache->stats().pfIssued, 4u);
}

TEST_F(CacheTest, LowerLevelTargetedPrefetchForwardsDown)
{
    // fillLevel = L2 at an L1 cache: forwarded, never filled here.
    cache->issuePrefetch(0x9000, levelL2, false, 0);
    run(60);
    EXPECT_FALSE(cache->present(0x9000));
    ASSERT_FALSE(mem.received.empty());
    EXPECT_EQ(mem.received[0].type, AccessType::Prefetch);
    EXPECT_EQ(mem.received[0].fillLevel, uint32_t(levelL2));
}

TEST_F(CacheTest, ReadQueueBackpressure)
{
    // rqSize = 8: the 9th outstanding demand is rejected.
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(cache->sendRequest(demand(0x20000 + i * 64, &rx, i)));
    EXPECT_FALSE(cache->sendRequest(demand(0x30000, &rx, 99)));
}

TEST_F(CacheTest, RejectedLowerRequestIsRetried)
{
    mem.rejectReads = true;
    cache->sendRequest(demand(0xa000, &rx));
    run(10);
    EXPECT_TRUE(rx.fills.empty());
    mem.rejectReads = false;
    run(70);
    EXPECT_EQ(rx.fills.size(), 1u); // MSHR retried the downstream send
}

TEST_F(CacheTest, DemandMissLatencyAccounted)
{
    cache->sendRequest(demand(0xb000, &rx));
    run(80);
    EXPECT_EQ(cache->stats().demandMissLatencyCnt, 1u);
    // Lower latency is 50; plus queueing it must be at least that.
    EXPECT_GE(cache->stats().avgDemandMissLatency(), 50.0);
}

TEST_F(CacheTest, SetsForComputesGeometry)
{
    EXPECT_EQ(CacheParams::setsFor(48 * 1024, 12), 64u);
    EXPECT_EQ(CacheParams::setsFor(512 * 1024, 8), 1024u);
    EXPECT_EQ(CacheParams::setsFor(2 * 1024 * 1024, 16), 2048u);
}

// ---- full-MSHR sleep ------------------------------------------------

TEST(CacheWakeTest, FullMshrSleepStallCountersMatchEveryCycle)
{
    // An MSHR-starved L2 (one MSHR), twice: `gated` ticks through its
    // wake-hint gate and sleeps while its queue heads wait on the full
    // MSHR file; `every` is forced to tick on every cycle and counts
    // each stall as it happens. Read mid-sleep, reset mid-sleep and
    // read at the end, the lazily settled counters must agree.
    Cycle clock = 0;
    CacheParams p;
    p.name = "L2-test";
    p.level = levelL2;
    p.sets = 16;
    p.ways = 2;
    p.mshrs = 1;
    FakeMemory mem_gated(&clock, 50);
    FakeMemory mem_every(&clock, 50);
    Cache gated(p, &mem_gated, &clock);
    Cache every(p, &mem_every, &clock);
    test::TimedReceiver rx_gated(&clock);
    test::TimedReceiver rx_every(&clock);

    auto send = [&](Addr a, AccessType type) {
        Request r;
        r.paddr = a;
        r.type = type;
        r.fillLevel = levelL2;
        bool read = type != AccessType::Prefetch;
        r.requester = read ? &rx_gated : nullptr;
        ASSERT_TRUE(gated.sendRequest(r));
        r.requester = read ? &rx_every : nullptr;
        ASSERT_TRUE(every.sendRequest(r));
    };
    auto run = [&](Cycle cycles) {
        for (Cycle i = 0; i < cycles; ++i) {
            gated.tick();
            mem_gated.tick();
            test::forceTick(every, clock);
            mem_every.tick();
            ++clock;
        }
    };
    auto expect_agree = [&](const char *when) {
        EXPECT_EQ(gated.stats().mshrFullStall, every.stats().mshrFullStall)
            << when;
        EXPECT_EQ(gated.stats().pfMshrWait, every.stats().pfMshrWait)
            << when;
    };

    // The first read takes the only MSHR; the second read and the
    // prefetch (L2-targeted: it waits rather than demotes) queue up
    // behind it, and so do the reads after them.
    send(0x1000, AccessType::Load);
    send(0x2000, AccessType::Load);
    send(0x3000, AccessType::Prefetch);
    send(0x4000, AccessType::Rfo);
    send(0x5000, AccessType::Load);

    run(20);
    ASSERT_GT(gated.wake().hint(), clock) << "asleep on the full MSHRs";
    EXPECT_GT(every.stats().mshrFullStall, 0u);
    EXPECT_GT(every.stats().pfMshrWait, 0u);
    expect_agree("mid-sleep");

    run(10);
    ASSERT_GT(gated.wake().hint(), clock) << "still asleep";
    gated.resetStats();
    every.resetStats();
    run(10);
    EXPECT_EQ(every.stats().mshrFullStall, 10u);
    expect_agree("after a mid-sleep reset");

    run(500);
    EXPECT_EQ(rx_every.fills.size(), 4u);
    EXPECT_EQ(rx_gated.fills, rx_every.fills);
    expect_agree("drained");
    EXPECT_LT(gated.wake().ticks(), every.wake().ticks() / 4);
}

} // namespace
} // namespace gaze
