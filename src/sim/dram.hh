/**
 * @file
 * DDR4-style DRAM controller: per-channel read/write queues with
 * FR-FCFS scheduling, bank row-buffer state, write-drain mode, and a
 * shared data bus whose occupancy produces the bandwidth contention the
 * paper's multi-core and MTPS-sweep results depend on.
 *
 * Timing follows Table II: tRP = tRCD = tCAS = 12.5ns, 3200 MTPS over a
 * 64-bit bus (a 64B line = 8 transfers = 2.5ns of bus time), 8 banks per
 * rank, 2KB row buffer per bank.
 */

#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/types.hh"
#include "sim/event.hh"
#include "sim/request.hh"

namespace gaze
{

/** DRAM organization and timing. */
struct DramParams
{
    uint32_t channels = 1;
    uint32_t ranksPerChannel = 1;
    uint32_t banksPerRank = 8;
    uint64_t rowBufferBytes = 2048;

    /** Mega-transfers per second on the data bus. */
    double mtps = 3200.0;

    /** CPU frequency, to convert ns to core cycles. */
    double cpuGhz = 4.0;

    uint32_t busWidthBits = 64;

    double tRpNs = 12.5;
    double tRcdNs = 12.5;
    double tCasNs = 12.5;

    uint32_t rqSize = 64; ///< per channel
    uint32_t wqSize = 64; ///< per channel
    uint32_t wqDrainHigh = 48;
    uint32_t wqDrainLow = 16;

    /** Channel/rank scaling the paper uses per core count (Table II). */
    static DramParams forCores(uint32_t cores);
};

/** Aggregate DRAM statistics. */
struct DramStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t rowHits = 0;
    uint64_t rowMisses = 0;
    uint64_t busBusyCycles = 0;
    uint64_t readLatencySum = 0; ///< enqueue -> data, demand+prefetch

    double
    rowHitRate() const
    {
        uint64_t t = rowHits + rowMisses;
        return t ? double(rowHits) / t : 0.0;
    }

    double
    avgReadLatency() const
    {
        return reads ? double(readLatencySum) / reads : 0.0;
    }

    void reset() { *this = DramStats{}; }
};

/** The memory controller: one instance serves the whole system. */
class Dram final : public MemoryDevice
{
  public:
    Dram(const DramParams &params, const Cycle *clock);

    bool sendRequest(const Request &req) override;
    void tick() override;

    const DramStats &stats() const { return stat; }
    void resetStats();

    /**
     * Recent data-bus utilization in [0,1], averaged over the last
     * completed epoch (~8K cycles). DSPatch keys its CovP/AccP choice
     * off this. Epoch boundaries the controller slept across are
     * accounted on the fly, so the answer is identical to the polled
     * engine's no matter how many idle cycles were skipped.
     */
    double recentUtilization() const;

    /** Wake hint and gated-tick count (see TickEvent). */
    const TickEvent &wake() const { return sched; }

    /**
     * Earliest future cycle a tick could change anything: the next
     * completion, and per channel the first cycle serviceChannel could
     * issue (past the bus horizon with some queued request's bank
     * ready), the cycle a pending drain-mode flip or rowHitBypasses
     * reset happens; kNeverWake when every queue and the completion
     * heap are empty (sendRequest wakes the controller). Exact: on
     * every cycle it skips an ungated tick would change nothing.
     */
    Cycle nextWakeCycle() const;

    const DramParams &params() const { return cfg; }

    /** Total read-queue occupancy across channels (tests). */
    size_t rqOccupancy() const;

  private:
    struct Bank
    {
        int64_t openRow = -1;
        Cycle ready = 0;
    };

    struct QueuedRequest
    {
        Request req;
        Cycle enqueue;
        uint64_t row;
        uint32_t bank;
    };

    struct Channel
    {
        RingBuffer<QueuedRequest> rq;
        RingBuffer<QueuedRequest> wq;
        std::vector<Bank> banks;
        Cycle busFree = 0;
        bool draining = false;

        /** Row hits served past an older request (reorder bound). */
        uint32_t rowHitBypasses = 0;
    };

    struct Completion
    {
        Cycle ready;
        uint64_t seq;
        Request req;
        bool operator>(const Completion &o) const
        {
            return ready != o.ready ? ready > o.ready : seq > o.seq;
        }
    };

    struct Decoded
    {
        uint32_t channel;
        uint32_t bank;
        uint64_t row;
    };

    Decoded decode(Addr paddr) const;
    void serviceChannel(Channel &ch);

    /**
     * The write-drain mode @p ch serves in on its next tick (the
     * hysteresis rule). With no queue change the result is a fixed
     * point, so serviceChannel and the wake hint share it.
     */
    bool drainAfterHysteresis(const Channel &ch) const;

    /** The per-channel part of nextWakeCycle(). */
    Cycle channelWakeCycle(const Channel &ch) const;

    /**
     * Process epoch boundaries that fell strictly before the current
     * cycle while the controller slept (the polled engine handles
     * each at its own cycle; idle epochs publish a zero utilization).
     */
    void catchUpEpochs();

    /** Candidate pair found by a queue scan (q.size() = none). */
    struct Pick
    {
        size_t rowHit;
        size_t oldest;
    };

    /**
     * Scan @p q for the first ready row hit and the oldest ready
     * request. When @p demands_only, prefetch-typed requests are
     * invisible (demand-over-prefetch read priority).
     */
    Pick scanQueue(const Channel &ch,
                   const RingBuffer<QueuedRequest> &q,
                   bool demands_only) const;

    /**
     * FR-FCFS with a reorder bound: serve ready row hits, but after
     * @ref rowHitBypassLimit consecutive bypasses of an older ready
     * request, serve the oldest so nothing starves. (An age cap is
     * the wrong tool: under heavy queueing every request exceeds any
     * fixed age and the policy would collapse to row-missing FCFS.)
     */
    size_t choose(Channel &ch, const Pick &p, size_t none) const;

    static constexpr uint32_t rowHitBypassLimit = 8;

    Cycle now() const { return *clock; }

    DramParams cfg;
    const Cycle *clock;

    TickEvent sched;

    std::vector<Channel> channels;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<>> completions;
    uint64_t completionSeq = 0;

    uint32_t banksPerChannel;
    uint64_t blocksPerRow;
    Cycle tRp, tRcd, tCas, burst;

    /** How far ahead of the data bus a command may issue. */
    Cycle horizon = 0;

    DramStats stat;

    // Utilization epoch tracking.
    static constexpr Cycle epochLength = 8192;
    Cycle epochStart = 0;
    uint64_t epochBusy = 0;
    double lastEpochUtil = 0.0;
};

} // namespace gaze
