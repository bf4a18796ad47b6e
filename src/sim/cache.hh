/**
 * @file
 * Set-associative, non-inclusive writeback cache with MSHRs, separate
 * read/write/prefetch queues, per-level prefetch fill targeting, and the
 * prefetch accounting the paper's metrics need (useful / useless / late,
 * attributed at each prefetch's target fill level).
 *
 * Timing model (ChampSim-like): a bounded number of tag lookups per
 * cycle; hits respond after the configured access latency; misses
 * allocate an MSHR and forward downwards, and the fill propagates back
 * up through every cache on the path, allocating wherever
 * level >= fillLevel.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/types.hh"
#include "sim/event.hh"
#include "sim/mshr_table.hh"
#include "sim/prefetcher.hh"
#include "sim/replacement.hh"
#include "sim/request.hh"
#include "sim/request_pool.hh"

namespace gaze
{

class VirtualMemory;

/** Static configuration of one cache. */
struct CacheParams
{
    std::string name = "cache";
    uint32_t level = levelL1;
    uint32_t sets = 64;
    uint32_t ways = 8;

    /** Access (hit) latency in cycles. */
    uint32_t latency = 5;

    uint32_t mshrs = 16;
    uint32_t rqSize = 64;
    uint32_t wqSize = 64;
    uint32_t pqSize = 8;

    /** Tag lookups (across RQ/WQ/PQ) per cycle. */
    uint32_t tagPorts = 2;

    std::string replacement = "lru";

    /** Derive sets from a byte size and associativity. */
    static uint32_t
    setsFor(uint64_t bytes, uint32_t ways)
    {
        return static_cast<uint32_t>(bytes / (uint64_t(ways) * blockSize));
    }
};

/** Prefetch/demand counters for one cache. */
struct CacheStats
{
    uint64_t loadAccess = 0;
    uint64_t loadHit = 0;
    uint64_t loadMiss = 0;
    uint64_t rfoAccess = 0;
    uint64_t rfoHit = 0;
    uint64_t rfoMiss = 0;

    /**
     * Of loadMiss/rfoMiss: demands that merged into an in-flight
     * prefetch MSHR (the prefetch was late, but still hid part of the
     * miss). Distinct sub-counters, not a reclassification — the
     * plain miss counters keep their historical meaning, and
     * loadMissLate + rfoMissLate == pfLate at every level.
     */
    uint64_t loadMissLate = 0;
    uint64_t rfoMissLate = 0;
    uint64_t wbAccess = 0;
    uint64_t wbHit = 0;
    uint64_t wbMiss = 0;

    /** Prefetch requests accepted into the PQ at this level. */
    uint64_t pfIssued = 0;
    /** Prefetch requests rejected because the PQ was full. */
    uint64_t pfDroppedFull = 0;
    /** Prefetch requests whose target was already pending in the PQ. */
    uint64_t pfDroppedDup = 0;
    /** Prefetch requests dropped on a tag hit (redundant prefetches). */
    uint64_t pfDroppedHit = 0;
    /** Prefetch requests dropped for want of an MSHR (LLC only). */
    uint64_t pfDroppedMshr = 0;
    /** MSHR-full events on the prefetch path (congestion signal). */
    uint64_t pfMshrWait = 0;
    /** Prefetches demoted one level out because MSHRs were full. */
    uint64_t pfDemoted = 0;
    /** Blocks filled with the prefetch bit at this level. */
    uint64_t pfFilled = 0;
    /** Prefetched blocks demanded before eviction. */
    uint64_t pfUseful = 0;
    /** Prefetched blocks evicted untouched. */
    uint64_t pfUseless = 0;
    /** Demand accesses that merged into an in-flight prefetch MSHR. */
    uint64_t pfLate = 0;

    uint64_t mshrMerge = 0;
    uint64_t mshrFullStall = 0;
    uint64_t writebacksSent = 0;

    /** Sum of demand miss latencies (allocation -> fill), and count. */
    uint64_t demandMissLatencySum = 0;
    uint64_t demandMissLatencyCnt = 0;

    uint64_t demandAccess() const { return loadAccess + rfoAccess; }
    uint64_t demandHit() const { return loadHit + rfoHit; }
    uint64_t demandMiss() const { return loadMiss + rfoMiss; }

    double
    avgDemandMissLatency() const
    {
        return demandMissLatencyCnt
            ? double(demandMissLatencySum) / demandMissLatencyCnt : 0.0;
    }

    void reset() { *this = CacheStats{}; }
};

/**
 * Obs attribution: lifecycle counters for one prefetching scheme at
 * one cache (indexed by the System-assigned scheme id). Pure
 * additions next to the aggregate CacheStats counters; compiled-out
 * hooks when GAZE_OBS is off (the vectors stay empty).
 */
struct SchemeStats
{
    uint64_t issued = 0;   ///< accepted into this cache's PQ
    uint64_t filled = 0;   ///< blocks filled with the prefetch bit
    uint64_t useful = 0;   ///< demanded before eviction
    uint64_t late = 0;     ///< demand merged while still in flight
    uint64_t useless = 0;  ///< evicted untouched
    /** Fill-to-first-demand-hit latency (timeliness), sum and count. */
    uint64_t fillToUseSum = 0;
    uint64_t fillToUseCnt = 0;

    void
    add(const SchemeStats &o)
    {
        issued += o.issued;
        filled += o.filled;
        useful += o.useful;
        late += o.late;
        useless += o.useless;
        fillToUseSum += o.fillToUseSum;
        fillToUseCnt += o.fillToUseCnt;
    }
};

/**
 * One cache level. Requests enter via sendRequest (queue-routed by
 * type); completions from the lower level arrive via recvFill and
 * propagate upwards to each waiting requester.
 */
class Cache final : public MemoryDevice, public FillReceiver
{
  public:
    /**
     * @param pool shared Request pool for MSHR waiter nodes; when
     *        null the cache owns a private one (standalone caches in
     *        unit tests).
     */
    Cache(const CacheParams &params, MemoryDevice *lower,
          const Cycle *clock, RequestPool *pool = nullptr);

    ~Cache() override;

    Cache(const Cache &) = delete;
    Cache &operator=(const Cache &) = delete;

    /** Attach a prefetcher to this level (may be null). */
    void setPrefetcher(Prefetcher *pf, VirtualMemory *vmem,
                       const Dram *dram, uint32_t cpu);

    // MemoryDevice
    bool sendRequest(const Request &req) override;
    void tick() override;

    // FillReceiver
    void recvFill(const Request &req) override;

    /**
     * Prefetcher-facing issue hook (called via
     * Prefetcher::issuePrefetch). Translates virtual targets, aligns,
     * and enqueues into the PQ.
     */
    bool issuePrefetch(Addr addr, uint32_t fill_level, bool virt,
                       uint32_t cpu);

    /** True when the block containing @p paddr is resident. */
    bool present(Addr paddr) const;

    /** Current cycle (shared system clock). */
    Cycle now() const { return *clock; }

    /** Wake hint and gated-tick count (see TickEvent). */
    const TickEvent &wake() const { return sched; }

    /**
     * Earliest future cycle at which tick() could have any effect:
     * next cycle while any queue, unissued MSHR, or prefetcher work
     * is pending; the next response-ready cycle otherwise; kNeverWake
     * when only a lower-level fill or new input can create work. A
     * tick that consumed nothing and stopped only at read/prefetch
     * queue heads waiting on a full MSHR file sleeps like a quiet
     * one: only a fill (recvFill) can free an MSHR, and it wakes the
     * cache, as does any new input.
     */
    Cycle nextWakeCycle() const;

    const CacheParams &params() const { return cfg; }

    /**
     * Counters, settled: mshrFullStall and pfMshrWait accrue lazily
     * across slept-through full-MSHR stalls (see catchUpMshrWaits),
     * so reading through here first accounts every cycle up to the
     * previous one — exactly what a cache ticked on every cycle would
     * show. The settle is a pure function of cache state, so it
     * cannot perturb the simulation.
     */
    const CacheStats &
    stats() const
    {
        const_cast<Cache *>(this)->catchUpMshrWaits();
        return stat;
    }

    /** Per-scheme lifecycle counters, indexed by scheme id (0 unused). */
    const std::vector<SchemeStats> &schemeStats() const
    {
        return schemeStat;
    }

    /**
     * Zero the counters. Settling first moves the lazy-stall baseline
     * to the reset point, so stalls slept through before the reset
     * are not re-attributed after it.
     */
    void
    resetStats()
    {
        catchUpMshrWaits();
        stat.reset();
        for (auto &s : schemeStat)
            s = SchemeStats{};
    }

    const std::string &name() const { return cfg.name; }
    uint32_t level() const { return cfg.level; }

    /** Number of in-flight MSHR entries (tests/backpressure checks). */
    size_t mshrOccupancy() const { return mshr.size(); }

    size_t rqOccupancy() const { return readQ.size(); }
    size_t pqOccupancy() const { return prefetchQ.size(); }

    Prefetcher *prefetcher() const { return pf; }

  private:
    /**
     * Block state lives in two split arrays: a flat tag word per block
     * (block-aligned paddr with valid/dirty/prefetch packed into the
     * low, always-zero address bits) and a cold metadata record. A set
     * scan touches only the tag array — ways x 8B, one cache line for
     * the default 8-way geometry — instead of 40B-wide block structs.
     */
    static constexpr Addr kBlkValid = 1;
    static constexpr Addr kBlkDirty = 2;
    static constexpr Addr kBlkPrefetch = 4;
    static constexpr Addr kBlkFlags = kBlkValid | kBlkDirty | kBlkPrefetch;
    static_assert(blockSize >= 8, "tag words need 3 low flag bits");

    /** "No such block" result from lookupSlot(). */
    static constexpr size_t kNoSlot = ~size_t(0);

    /** Cold per-block metadata, touched on hits and fills only. */
    struct BlockMeta
    {
        Addr vaddr = 0;         ///< block-aligned vaddr of last toucher
        Cycle fillCycle = 0;    ///< fill time, for fill-to-use latency
        uint16_t pfScheme = 0;  ///< issuing scheme id while prefetch set
    };

    struct MshrEntry
    {
        Request downstream;          ///< request sent to the lower level
        /** Waiting requesters: a pooled, insertion-ordered list. */
        RequestPool::Node *waitersHead = nullptr;
        RequestPool::Node *waitersTail = nullptr;
        bool demanded = false;       ///< a demand access depends on it
        bool wasPrefetchOnly = false;
        bool issuedToLower = false;
        Cycle allocCycle = 0;
    };

    struct PendingResponse
    {
        Cycle ready;
        uint64_t seq;
        Request req;
        bool operator>(const PendingResponse &o) const
        {
            return ready != o.ready ? ready > o.ready : seq > o.seq;
        }
    };

    uint32_t setIndex(Addr paddr) const;

    /** Flat block index of the resident block, or kNoSlot. */
    size_t lookupSlot(Addr paddr) const;

    /** Fill a block; evicts (with writeback) as needed. */
    void fillBlock(const Request &req, bool mark_prefetch);

    void scheduleResponse(const Request &req, Cycle when);
    void deliverResponses();

    /** Outcome of processing the PQ head. */
    enum class PfOutcome
    {
        Done,    ///< consumed (issued, merged, dropped, or forwarded)
        Retry,   ///< a lower level rejected it; retry next cycle
        MshrWait ///< blocked at the head until an MSHR frees
    };

    bool handleRead(Request &req);
    bool handleWrite(Request &req);
    PfOutcome handlePrefetch(Request &req);

    /** Allocate or merge into an MSHR; false => caller must stall. */
    bool missToMshr(Request &req);

    void retryUnissuedMshrs();

    /**
     * Account the stall counters for cycles slept through while the
     * queue heads waited on a full MSHR file: a cache ticked on every
     * such cycle adds one mshrFullStall per cycle for a waiting read
     * head and one pfMshrWait for a waiting prefetch head. The state
     * is unchanged across the skipped window (anything that could
     * change it wakes the cache), so the catch-up is exact.
     */
    void catchUpMshrWaits();

    void notifyPrefetcherAccess(const Request &req, bool hit);

    /** Append @p req to @p e's pooled waiter list. */
    void appendWaiter(MshrEntry &e, const Request &req);

    CacheParams cfg;
    MemoryDevice *lower;
    const Cycle *clock;

    TickEvent sched;
    RequestPool *pool;
    std::unique_ptr<RequestPool> ownedPool;

    /** MSHRs whose downstream send is still pending (retry set). */
    uint32_t unissuedMshrs = 0;

    // Full-MSHR sleep state, set by each tick (see tick()).
    Cycle lastTickCycle = 0;      ///< lazy-stall catch-up baseline
    bool readWaitsOnMshr = false; ///< RQ head sleeps on full MSHRs
    bool pfWaitsOnMshr = false;   ///< PQ head sleeps on full MSHRs

    std::vector<Addr> tagArr;
    std::vector<BlockMeta> meta;
    std::unique_ptr<ReplacementPolicy> repl;

    RingBuffer<Request> readQ;
    RingBuffer<Request> writeQ;
    RingBuffer<Request> prefetchQ;

    /** Flat open-addressed MSHR map; capacity = cfg.mshrs. */
    MshrTable<MshrEntry> mshr;

    std::priority_queue<PendingResponse, std::vector<PendingResponse>,
                        std::greater<>> responses;
    uint64_t responseSeq = 0;

    /** Counter slot for @p scheme_id, growing the table on demand. */
    SchemeStats &
    schemeSlot(uint16_t scheme_id)
    {
        if (schemeStat.size() <= scheme_id)
            schemeStat.resize(size_t(scheme_id) + 1);
        return schemeStat[scheme_id];
    }

    Prefetcher *pf = nullptr;
    VirtualMemory *vmem = nullptr;

    CacheStats stat;
    std::vector<SchemeStats> schemeStat;
};

} // namespace gaze
