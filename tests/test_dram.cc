/**
 * @file
 * DRAM controller tests: Table II timing derivation, row-buffer
 * effects, bank-level parallelism, FR-FCFS with the starvation guard,
 * write-drain hysteresis, the bandwidth ceiling implied by
 * 3200 MTPS over a 64-bit bus, and the exactness of the controller's
 * wake hint against a controller ticked on every cycle.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/dram.hh"
#include "test_util.hh"

namespace gaze
{
namespace
{

using test::FakeReceiver;

class DramTest : public ::testing::Test
{
  protected:
    DramTest()
    {
        params.channels = 1;
        params.ranksPerChannel = 1;
    }

    void
    build()
    {
        dram = std::make_unique<Dram>(params, &clock);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            dram->tick();
            ++clock;
        }
    }

    Request
    read(Addr a, FillReceiver *r)
    {
        Request q;
        q.paddr = a;
        q.type = AccessType::Load;
        q.requester = r;
        q.issueCycle = clock;
        return q;
    }

    Cycle clock = 0;
    DramParams params;
    std::unique_ptr<Dram> dram;
    FakeReceiver rx;
};

TEST_F(DramTest, TableIIScalingPerCores)
{
    EXPECT_EQ(DramParams::forCores(1).channels, 1u);
    EXPECT_EQ(DramParams::forCores(1).ranksPerChannel, 1u);
    EXPECT_EQ(DramParams::forCores(2).channels, 2u);
    EXPECT_EQ(DramParams::forCores(2).ranksPerChannel, 1u);
    EXPECT_EQ(DramParams::forCores(4).channels, 2u);
    EXPECT_EQ(DramParams::forCores(4).ranksPerChannel, 2u);
    EXPECT_EQ(DramParams::forCores(8).channels, 4u);
    EXPECT_EQ(DramParams::forCores(8).ranksPerChannel, 2u);
}

TEST_F(DramTest, SingleReadLatencyIsAccessPlusBurst)
{
    build();
    ASSERT_TRUE(dram->sendRequest(read(0x10000, &rx)));
    run(500);
    ASSERT_EQ(rx.fills.size(), 1u);
    // Cold bank: tRCD + tCAS = 100 cycles, + 10 burst.
    EXPECT_EQ(dram->stats().reads, 1u);
    EXPECT_NEAR(dram->stats().avgReadLatency(), 110.0, 2.0);
}

TEST_F(DramTest, RowHitIsFasterThanRowMiss)
{
    build();
    // Same bank, same row: channel=0 always (1ch); bank repeats every
    // 8 blocks; row buffer holds 32 blocks of a bank.
    Addr a = 0x100000;
    Addr same_row = a + 8 * 64; // same bank, +1 column
    dram->sendRequest(read(a, &rx));
    run(200);
    uint64_t lat_sum_first = dram->stats().readLatencySum;

    dram->sendRequest(read(same_row, &rx));
    run(200);
    uint64_t lat_second = dram->stats().readLatencySum - lat_sum_first;
    // Row hit: tCAS + burst = 60 vs cold 110.
    EXPECT_LT(lat_second, 70u);
    EXPECT_EQ(dram->stats().rowHits, 1u);
}

TEST_F(DramTest, RowConflictPaysPrechargeActivate)
{
    build();
    Addr a = 0x100000;
    // Same bank, different row: banks repeat every 8 blocks, a row
    // holds 32 blocks per bank -> +8*32 blocks is the next row.
    Addr other_row = a + 8 * 32 * 64;
    dram->sendRequest(read(a, &rx));
    run(200);
    uint64_t before = dram->stats().readLatencySum;
    dram->sendRequest(read(other_row, &rx));
    run(300);
    uint64_t lat = dram->stats().readLatencySum - before;
    // tRP + tRCD + tCAS + burst = 160.
    EXPECT_GE(lat, 155u);
    EXPECT_EQ(dram->stats().rowMisses, 2u);
}

TEST_F(DramTest, BankParallelismBeatsSerialAccess)
{
    build();
    // 8 reads to 8 different banks: total time far less than 8x one
    // access; data bus serializes only the 10-cycle bursts.
    for (int i = 0; i < 8; ++i)
        dram->sendRequest(read(0x200000 + i * 64, &rx));
    run(250);
    EXPECT_EQ(rx.fills.size(), 8u);
}

TEST_F(DramTest, ThroughputApproachesBusLimit)
{
    build();
    // Stream of same-row reads: steady state should approach one line
    // per burst (10 cycles).
    FakeReceiver sink;
    uint64_t issued = 0;
    for (Cycle t = 0; t < 4000; ++t) {
        if (issued < 300) {
            // Sequential blocks: rotate banks, stay in rows.
            if (dram->sendRequest(read(0x400000 + issued * 64, &sink)))
                ++issued;
        }
        dram->tick();
        ++clock;
    }
    run(500);
    EXPECT_GE(sink.fills.size(), 250u);
    double cycles_per_read = 4500.0 / double(sink.fills.size());
    EXPECT_LT(cycles_per_read, 18.0);
}

TEST_F(DramTest, ReadQueueBackpressure)
{
    params.rqSize = 4;
    build();
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(dram->sendRequest(read(0x10000 + i * 64, &rx)));
    EXPECT_FALSE(dram->sendRequest(read(0x90000, &rx)));
    EXPECT_EQ(dram->rqOccupancy(), 4u);
}

TEST_F(DramTest, WritesAreDrainedWithoutResponses)
{
    build();
    for (int i = 0; i < 60; ++i) {
        Request w;
        w.paddr = 0x500000 + i * 64;
        w.type = AccessType::Writeback;
        ASSERT_TRUE(dram->sendRequest(w));
    }
    run(4000);
    EXPECT_GT(dram->stats().writes, 0u);
    EXPECT_TRUE(rx.fills.empty());
}

TEST_F(DramTest, StarvationGuardBoundsReadWait)
{
    build();
    // One "victim" read to a lonely row, then a continuous stream of
    // row hits to another bank. The victim must still complete within
    // the starvation cap plus service time.
    dram->sendRequest(read(0x700000 + 1 * 64, &rx)); // bank 1
    FakeReceiver sink;
    uint64_t issued = 0;
    Cycle victim_done = 0;
    for (Cycle t = 0; t < 3000 && victim_done == 0; ++t) {
        // Keep bank 0 row-hitting (blocks 8 apart share bank 0's row).
        if (dram->sendRequest(read(0x800000 + issued * 8 * 64, &sink)))
            ++issued;
        dram->tick();
        ++clock;
        if (!rx.fills.empty())
            victim_done = clock;
    }
    ASSERT_NE(victim_done, 0u);
    EXPECT_LT(victim_done, 1200u);
}

TEST_F(DramTest, UtilizationTracksLoad)
{
    build();
    // Idle epoch -> ~0 utilization after one epoch rolls.
    run(10000);
    EXPECT_LT(dram->recentUtilization(), 0.05);

    // Saturate with reads for several epochs.
    FakeReceiver sink;
    uint64_t issued = 0;
    for (Cycle t = 0; t < 30000; ++t) {
        if (dram->sendRequest(read(0x600000 + issued * 64, &sink)))
            ++issued;
        dram->tick();
        ++clock;
    }
    EXPECT_GT(dram->recentUtilization(), 0.5);
}

TEST_F(DramTest, HigherMtpsShortensBurst)
{
    params.mtps = 12800.0; // DDR5-class
    build();
    dram->sendRequest(read(0x10000, &rx));
    run(300);
    // Burst shrinks from 10 to ceil(8*4000/12800)=3 cycles.
    EXPECT_NEAR(dram->stats().avgReadLatency(), 103.0, 2.0);
}

TEST_F(DramTest, MultiChannelPartitionsBlocks)
{
    params.channels = 4;
    build();
    // Consecutive blocks go to different channels: 4 simultaneous
    // cold accesses complete in about one access time, not four.
    for (int i = 0; i < 4; ++i)
        dram->sendRequest(read(0x900000 + i * 64, &rx));
    run(130);
    EXPECT_EQ(rx.fills.size(), 4u);
}

// ---- wake-hint exactness --------------------------------------------

/**
 * Two identical controllers fed the same requests on the same cycles:
 * `gated` ticks through its wake-hint gate, as both engines do, and
 * `every` is forced to tick on every cycle. An exact hint makes them
 * agree on every completion (cycle and order) and every counter.
 */
class DramPair
{
  public:
    explicit DramPair(const DramParams &p)
        : gated(p, &clock), every(p, &clock), rxGated(&clock),
          rxEvery(&clock)
    {
    }

    /** Offer @p r to both controllers; they must agree on acceptance. */
    void
    send(Addr paddr, AccessType type)
    {
        Request r;
        r.paddr = paddr;
        r.type = type;
        bool write = type == AccessType::Writeback;
        r.requester = write ? nullptr : &rxGated;
        bool a = gated.sendRequest(r);
        r.requester = write ? nullptr : &rxEvery;
        bool b = every.sendRequest(r);
        EXPECT_EQ(a, b) << "cycle " << clock;
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i) {
            gated.tick();
            test::forceTick(every, clock);
            ++clock;
        }
    }

    void
    expectAgree() const
    {
        EXPECT_EQ(rxGated.fills, rxEvery.fills);
        const DramStats &g = gated.stats();
        const DramStats &e = every.stats();
        EXPECT_EQ(g.reads, e.reads);
        EXPECT_EQ(g.writes, e.writes);
        EXPECT_EQ(g.rowHits, e.rowHits);
        EXPECT_EQ(g.rowMisses, e.rowMisses);
        EXPECT_EQ(g.busBusyCycles, e.busBusyCycles);
        EXPECT_EQ(g.readLatencySum, e.readLatencySum);
        EXPECT_EQ(gated.recentUtilization(), every.recentUtilization());
        // Not vacuous: the gated controller actually slept.
        EXPECT_LT(gated.wake().ticks(), every.wake().ticks());
    }

    Cycle clock = 0;
    Dram gated;
    Dram every;
    test::TimedReceiver rxGated;
    test::TimedReceiver rxEvery;
};

/** Block address of (bank, row, column) on a 1-channel, 8-bank map. */
Addr
bankRowCol(uint64_t bank, uint64_t row, uint64_t col)
{
    const uint64_t blocks_per_row = 2048 / blockSize;
    return ((row * blocks_per_row + col) * 8 + bank) * blockSize;
}

TEST(DramWakeTest, BypassResetWhileEveryBankIsBusyMatchesEveryCycle)
{
    DramParams p;
    p.channels = 1;
    p.ranksPerChannel = 1;
    DramPair d(p);

    // Open bank 0's row 0.
    d.send(bankRowCol(0, 0, 0), AccessType::Load);
    d.run(300);

    // An older row miss, then a run of row hits, all on bank 0. Each
    // hit bypasses the miss (rowHitBypasses becomes 1) and leaves the
    // only queued bank busy; the busy cycles that follow pass the bus
    // horizon with no ready bank, which resets the count. Were the
    // reset skipped, the reorder bound would trip after 8 hits and
    // serve the miss early.
    const Addr miss = bankRowCol(0, 1, 0);
    d.send(miss, AccessType::Load);
    for (uint64_t col = 1; col <= 12; ++col)
        d.send(bankRowCol(0, 0, col), AccessType::Load);
    d.run(3000);

    ASSERT_EQ(d.rxEvery.fills.size(), 14u);
    EXPECT_EQ(d.rxEvery.fills.back().second, miss)
        << "every hit is served before the bypassed miss";
    d.expectAgree();
}

TEST(DramWakeTest, RandomTrafficMatchesEveryCycle)
{
    // Bursts of mixed reads and writebacks over a few rows per bank:
    // row hits and conflicts, bus-horizon stalls (sequential streams
    // over 16 banks outrun the bus), read-queue back-pressure, and
    // write-drain flips in both directions. 1 and 2 channels x ranks.
    for (uint32_t n : {1u, 2u}) {
        DramParams p;
        p.channels = n;
        p.ranksPerChannel = n;
        DramPair d(p);
        Rng rng(0x5eed + n);
        const uint64_t blocks = n * n * 8 * 32 * 3;
        uint64_t next_block = 0;
        for (int phase = 0; phase < 40; ++phase) {
            bool burst = phase % 2 == 0;
            bool sequential = rng.below(2) == 0;
            uint64_t write_pct = rng.below(4) * 25; // 0..75%
            for (Cycle t = 0; t < 400; ++t) {
                uint64_t sends = burst ? rng.below(3) : rng.below(8) == 0;
                for (uint64_t i = 0; i < sends; ++i) {
                    uint64_t block = sequential ? next_block++ % blocks
                                                : rng.below(blocks);
                    Addr a = blockSize * block;
                    d.send(a, rng.below(100) < write_pct
                                  ? AccessType::Writeback
                                  : AccessType::Load);
                }
                d.run(1);
            }
        }
        d.run(20000);
        EXPECT_GT(d.every.stats().writes, 0u) << n;
        EXPECT_GT(d.every.stats().rowHits, 0u) << n;
        d.expectAgree();
    }
}

} // namespace
} // namespace gaze
