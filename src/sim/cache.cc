#include "sim/cache.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/obs.hh"
#include "sim/vmem.hh"

namespace gaze
{

Cache::Cache(const CacheParams &params, MemoryDevice *lower_dev,
             const Cycle *clock_ptr, RequestPool *pool_ptr)
    : cfg(params), lower(lower_dev), clock(clock_ptr), pool(pool_ptr),
      tagArr(size_t(params.sets) * params.ways, 0),
      meta(size_t(params.sets) * params.ways),
      repl(makeReplacementPolicy(params.replacement, params.sets,
                                 params.ways)),
      readQ(params.rqSize), writeQ(params.wqSize),
      prefetchQ(params.pqSize), mshr(params.mshrs)
{
    GAZE_ASSERT(isPowerOfTwo(cfg.sets),
                cfg.name, ": sets must be a power of two, got ", cfg.sets);
    GAZE_ASSERT(cfg.ways >= 1, cfg.name, ": cache needs at least one way");
    GAZE_ASSERT(cfg.mshrs >= 1, cfg.name, ": cache needs at least one MSHR");
    GAZE_ASSERT(lower != nullptr, "cache needs a lower level");
    GAZE_ASSERT(clock != nullptr, "cache needs a clock");
    if (!pool) {
        ownedPool = std::make_unique<RequestPool>();
        pool = ownedPool.get();
    }
}

Cache::~Cache()
{
    // Runs can end with fetches in flight; their waiter chains go
    // back to the pool here so System can assert pool balance.
    mshr.forEachInOrder(
        [this](Addr, MshrEntry &e) { pool->releaseChain(e.waitersHead); });
}

void
Cache::setPrefetcher(Prefetcher *prefetcher, VirtualMemory *vm,
                     const Dram *dram, uint32_t cpu)
{
    pf = prefetcher;
    vmem = vm;
    if (pf) {
        PrefetcherContext ctx;
        ctx.cache = this;
        ctx.vmem = vm;
        ctx.dram = dram;
        ctx.cpu = cpu;
        ctx.level = cfg.level;
        pf->attach(ctx);
    }
}

uint32_t
Cache::setIndex(Addr paddr) const
{
    return static_cast<uint32_t>(blockNumber(paddr) & (cfg.sets - 1));
}

size_t
Cache::lookupSlot(Addr paddr) const
{
    // One compare per way: a tag word with the valid bit set and the
    // dirty/prefetch bits masked off must equal (aligned addr | valid).
    Addr want = blockAlign(paddr) | kBlkValid;
    size_t base = size_t(setIndex(paddr)) * cfg.ways;
    for (uint32_t w = 0; w < cfg.ways; ++w) {
        if ((tagArr[base + w] & ~(kBlkDirty | kBlkPrefetch)) == want)
            return base + w;
    }
    return kNoSlot;
}

bool
Cache::present(Addr paddr) const
{
    return lookupSlot(paddr) != kNoSlot;
}

bool
Cache::sendRequest(const Request &req)
{
    Request r = req;
    r.paddr = blockAlign(r.paddr);
    switch (r.type) {
      case AccessType::Load:
      case AccessType::Rfo:
        if (readQ.size() >= cfg.rqSize)
            return false;
        readQ.push_back(r);
        sched.requestWake(now());
        return true;
      case AccessType::Writeback:
        // Writebacks are sunk unconditionally (see DESIGN.md): a full
        // WQ would otherwise deadlock fills; occupancy is still
        // tracked so DRAM write-drain pressure is realistic.
        writeQ.push_back(r);
        sched.requestWake(now());
        return true;
      case AccessType::Prefetch:
        if (prefetchQ.size() >= cfg.pqSize) {
            ++stat.pfDroppedFull;
            return false;
        }
        prefetchQ.push_back(r);
        sched.requestWake(now());
        return true;
      case AccessType::Translation:
        break;
    }
    GAZE_PANIC("unroutable request type");
}

bool
Cache::issuePrefetch(Addr addr, uint32_t fill_level, bool virt,
                     uint32_t cpu)
{
    // A scheme written for L1D attach may ask for an L1 fill while
    // running at L2C (Fig. 13 combos): clamp to this cache's level.
    fill_level = std::max(fill_level, cfg.level);
    GAZE_ASSERT(fill_level <= levelLLC, "bad prefetch fill level");
    Request r;
    r.type = AccessType::Prefetch;
    r.cpu = cpu;
    r.fillLevel = fill_level;
    r.pfOrigin = cfg.level;
    r.pfScheme = pf ? pf->schemeId() : 0;
    r.issueCycle = now();
    if (virt) {
        GAZE_ASSERT(vmem, "virtual prefetch needs vmem at ", cfg.name);
        r.vaddr = blockAlign(addr);
        r.paddr = blockAlign(vmem->translate(addr, cpu));
    } else {
        r.vaddr = 0;
        r.paddr = blockAlign(addr);
    }

    // ChampSim-style PQ dedup: an identical pending target is not
    // queued twice (delta prefetchers re-propose the same block on
    // every access of a cache line).
    for (size_t i = 0; i < prefetchQ.size(); ++i) {
        if (prefetchQ[i].paddr == r.paddr) {
            ++stat.pfDroppedDup;
            return true;
        }
    }
    if (prefetchQ.size() >= cfg.pqSize) {
        ++stat.pfDroppedFull;
        return false;
    }
    prefetchQ.push_back(r);
    ++stat.pfIssued;
    GAZE_OBS_HOOK(if (r.pfScheme) ++schemeSlot(r.pfScheme).issued;);
    // Covers prefetchers driven from outside this cache's tick (unit
    // tests poking onAccess by hand); from inside a tick this is a
    // no-op — the end-of-tick wake hint sees the non-empty PQ.
    sched.requestWake(now());
    return true;
}

void
Cache::scheduleResponse(const Request &req, Cycle when)
{
    responses.push(PendingResponse{when, responseSeq++, req});
}

void
Cache::deliverResponses()
{
    while (!responses.empty() && responses.top().ready <= now()) {
        Request r = responses.top().req;
        responses.pop();
        if (r.requester)
            r.requester->recvFill(r);
    }
}

void
Cache::notifyPrefetcherAccess(const Request &req, bool hit)
{
    if (!pf || !req.isDemand())
        return;
    DemandAccess a;
    a.vaddr = req.vaddr;
    a.paddr = req.paddr;
    a.pc = req.pc;
    a.hit = hit;
    a.type = req.type;
    a.cycle = now();
    a.cpu = req.cpu;
    pf->onAccess(a);
}

void
Cache::appendWaiter(MshrEntry &e, const Request &req)
{
    RequestPool::Node *n = pool->alloc(req);
    if (e.waitersTail)
        e.waitersTail->next = n;
    else
        e.waitersHead = n;
    e.waitersTail = n;
}

bool
Cache::missToMshr(Request &req)
{
    if (MshrEntry *e = mshr.find(req.paddr)) {
        if (req.isDemand()) {
            if (e->wasPrefetchOnly && !e->demanded) {
                ++stat.pfLate;
                (req.type == AccessType::Load ? stat.loadMissLate
                                              : stat.rfoMissLate)++;
                GAZE_OBS_HOOK(
                    if (e->downstream.pfScheme)
                        ++schemeSlot(e->downstream.pfScheme).late;);
            }
            e->demanded = true;
            // A demand upgrade pulls the fill all the way in.
            e->downstream.fillLevel =
                std::min(e->downstream.fillLevel, req.fillLevel);
        }
        appendWaiter(*e, req);
        ++stat.mshrMerge;
        return true;
    }

    if (mshr.full())
        return false;

    MshrEntry &e = mshr.insert(req.paddr);
    e.downstream = req;
    e.downstream.requester = this;
    e.downstream.issueCycle = now();
    e.demanded = req.isDemand();
    e.wasPrefetchOnly = !req.isDemand();
    e.allocCycle = now();
    appendWaiter(e, req);
    e.issuedToLower = lower->sendRequest(e.downstream);
    if (!e.issuedToLower)
        ++unissuedMshrs;
    return true;
}

bool
Cache::handleRead(Request &req)
{
    bool is_load = req.type == AccessType::Load;

    size_t slot = lookupSlot(req.paddr);
    if (slot != kNoSlot) {
        (is_load ? stat.loadAccess : stat.rfoAccess)++;
        (is_load ? stat.loadHit : stat.rfoHit)++;
        uint32_t set = setIndex(req.paddr);
        uint32_t way = static_cast<uint32_t>(slot
                                             - size_t(set) * cfg.ways);
        repl->onHit(set, way);
        if (tagArr[slot] & kBlkPrefetch) {
            ++stat.pfUseful;
            GAZE_OBS_HOOK(if (meta[slot].pfScheme) {
                SchemeStats &ss = schemeSlot(meta[slot].pfScheme);
                ++ss.useful;
                ss.fillToUseSum += now() - meta[slot].fillCycle;
                ++ss.fillToUseCnt;
            });
            tagArr[slot] &= ~kBlkPrefetch;
        }
        if (req.type == AccessType::Rfo)
            tagArr[slot] |= kBlkDirty;
        if (req.vaddr)
            meta[slot].vaddr = blockAlign(req.vaddr);
        notifyPrefetcherAccess(req, true);
        scheduleResponse(req, now() + cfg.latency);
        return true;
    }

    if (!missToMshr(req)) {
        // Retry next cycle; count the access only when it proceeds so
        // the prefetcher is not double-trained on stalls.
        ++stat.mshrFullStall;
        return false;
    }
    (is_load ? stat.loadAccess : stat.rfoAccess)++;
    (is_load ? stat.loadMiss : stat.rfoMiss)++;
    notifyPrefetcherAccess(req, false);
    return true;
}

bool
Cache::handleWrite(Request &req)
{
    ++stat.wbAccess;
    size_t slot = lookupSlot(req.paddr);
    if (slot != kNoSlot) {
        ++stat.wbHit;
        tagArr[slot] |= kBlkDirty;
        return true;
    }
    // Non-inclusive writeback miss: the line is complete, so allocate
    // directly without fetching from below.
    ++stat.wbMiss;
    fillBlock(req, /*mark_prefetch=*/false);
    return true;
}

Cache::PfOutcome
Cache::handlePrefetch(Request &req)
{
    if (req.fillLevel > cfg.level) {
        // Targeted at a lower level: pass it down untouched. The lower
        // cache adopts it as its own prefetch request.
        return lower->sendRequest(req) ? PfOutcome::Done
                                       : PfOutcome::Retry;
    }

    size_t slot = lookupSlot(req.paddr);
    if (slot != kNoSlot) {
        // Redundant prefetch. A requester-less prefetch (issued at
        // this level) is simply dropped; one that came from an upper
        // cache's MSHR must be answered or that MSHR leaks.
        ++stat.pfDroppedHit;
        if (req.requester) {
            uint32_t set = setIndex(req.paddr);
            uint32_t way = static_cast<uint32_t>(
                slot - size_t(set) * cfg.ways);
            repl->onHit(set, way);
            scheduleResponse(req, now() + cfg.latency);
        }
        return PfOutcome::Done;
    }
    if (MshrEntry *e = mshr.find(req.paddr)) {
        // Already being fetched: ride along (or drop if local).
        ++stat.pfDroppedHit;
        if (req.requester) {
            appendWaiter(*e, req);
            ++stat.mshrMerge;
        }
        return PfOutcome::Done;
    }
    if (mshr.full()) {
        ++stat.pfMshrWait;
        if (req.requester)
            return PfOutcome::MshrWait; // dropping would leak upper MSHR
        if (cfg.level == levelL1) {
            // The L1 PQ holds mixed fill levels; a waiting L1-fill
            // head would starve L2-targeted prefetches behind it.
            // Demote it instead: fetch anyway, park one level out (a
            // later demand hits L2 instead of DRAM — most of the
            // benefit, none of the clog).
            Request demoted = req;
            demoted.fillLevel = cfg.level + 1;
            if (!lower->sendRequest(demoted))
                return PfOutcome::Retry;
            ++stat.pfDemoted;
            return PfOutcome::Done;
        }
        // L2/LLC PQs are homogeneous (everything targets this level
        // or beyond), so waiting at the head starves nothing, and the
        // fetch keeps its slot until an MSHR frees.
        return PfOutcome::MshrWait;
    }
    return missToMshr(req) ? PfOutcome::Done : PfOutcome::Retry;
}

void
Cache::tick()
{
    // Wake-hint gate (see TickEvent): skip cycles where the last
    // tick's nextWakeCycle() proved (and no wake since lowered the
    // bar) that ticking can have no effect.
    if (!sched.due(now()))
        return;

    catchUpMshrWaits();
    deliverResponses();
    retryUnissuedMshrs();

    uint32_t ops = 0;
    bool read_waits = false;
    bool pf_waits = false;

    // Demand reads take priority for tag bandwidth.
    while (ops < cfg.tagPorts && !readQ.empty()) {
        Request req = readQ.front();
        if (!handleRead(req)) {
            read_waits = true; // MSHR full: head-of-line stall
            break;
        }
        readQ.pop_front();
        ++ops;
    }

    // One writeback per cycle keeps WQ drain realistic but cheap.
    bool wrote = !writeQ.empty();
    if (wrote) {
        Request req = writeQ.front();
        writeQ.pop_front();
        handleWrite(req);
    }

    while (ops < cfg.tagPorts && !prefetchQ.empty()) {
        Request req = prefetchQ.front();
        PfOutcome outcome = handlePrefetch(req);
        if (outcome != PfOutcome::Done) {
            pf_waits = outcome == PfOutcome::MshrWait;
            break; // blocked: retry next cycle
        }
        prefetchQ.pop_front();
        ++ops;
    }

    if (pf)
        pf->tick();

    // A tick that consumed nothing and stopped only at heads waiting
    // on a full MSHR file ends the same way on every following cycle
    // until a fill frees an MSHR or new input arrives (recvFill and
    // sendRequest wake the cache for both).
    bool idle = ops == 0 && !wrote;
    readWaitsOnMshr = idle && read_waits;
    pfWaitsOnMshr = idle && pf_waits;
    lastTickCycle = now();

    sched.tickDone(nextWakeCycle());
}

void
Cache::catchUpMshrWaits()
{
    if (now() <= lastTickCycle + 1)
        return; // no skipped cycles
    // Each skipped cycle [lastTickCycle+1, now-1] would have ended
    // exactly like the last tick: the same heads, the same full MSHR
    // file, one more stall on each waiting head.
    uint64_t skipped = now() - lastTickCycle - 1;
    if (readWaitsOnMshr)
        stat.mshrFullStall += skipped;
    if (pfWaitsOnMshr)
        stat.pfMshrWait += skipped;
    lastTickCycle = now() - 1;
}

void
Cache::retryUnissuedMshrs()
{
    if (unissuedMshrs == 0)
        return;
    uint32_t budget = 2;
    // Insertion order: the oldest stranded fetch retries first, a
    // deterministic FIFO precedence (the hash map this table replaced
    // retried in unspecified bucket order).
    mshr.forEachInOrder([&](Addr, MshrEntry &e) {
        if (e.issuedToLower)
            return true;
        e.issuedToLower = lower->sendRequest(e.downstream);
        if (e.issuedToLower)
            --unissuedMshrs;
        return --budget != 0;
    });
}

void
Cache::fillBlock(const Request &req, bool mark_prefetch)
{
    uint32_t set = setIndex(req.paddr);
    size_t base = size_t(set) * cfg.ways;
    uint64_t valid_mask = 0;
    for (uint32_t w = 0; w < cfg.ways; ++w)
        valid_mask |= uint64_t(tagArr[base + w] & kBlkValid) << w;

    uint32_t way = repl->victim(set, valid_mask);
    size_t slot = base + way;
    Addr old = tagArr[slot];

    Addr evicted = 0;
    if (old & kBlkValid) {
        evicted = old & ~kBlkFlags;
        if (old & kBlkPrefetch) {
            ++stat.pfUseless;
            GAZE_OBS_HOOK(
                if (meta[slot].pfScheme)
                    ++schemeSlot(meta[slot].pfScheme).useless;);
        }
        if (old & kBlkDirty) {
            Request wb;
            wb.type = AccessType::Writeback;
            wb.paddr = evicted;
            wb.cpu = req.cpu;
            wb.fillLevel = cfg.level + 1;
            wb.issueCycle = now();
            lower->sendRequest(wb);
            ++stat.writebacksSent;
        }
        if (pf)
            pf->onEvict(evicted, meta[slot].vaddr);
    }

    GAZE_ASSERT((req.paddr & kBlkFlags) == 0, "unaligned fill address");
    Addr tag = req.paddr | kBlkValid;
    // RFO fills dirty the block at the level the store lives (L1);
    // copies allocated further out on the response path stay clean.
    if (req.type == AccessType::Writeback ||
        (req.type == AccessType::Rfo && cfg.level == req.fillLevel))
        tag |= kBlkDirty;
    if (mark_prefetch)
        tag |= kBlkPrefetch;
    tagArr[slot] = tag;
    meta[slot].pfScheme = mark_prefetch ? req.pfScheme : 0;
    meta[slot].fillCycle = now();
    meta[slot].vaddr = req.vaddr ? blockAlign(req.vaddr) : 0;
    repl->onFill(set, way, mark_prefetch);

    if (mark_prefetch) {
        ++stat.pfFilled;
        GAZE_OBS_HOOK(
            if (req.pfScheme) ++schemeSlot(req.pfScheme).filled;);
    }

    if (pf && req.type != AccessType::Writeback) {
        FillEvent f;
        f.paddr = req.paddr;
        f.vaddr = meta[slot].vaddr;
        f.pc = req.pc;
        f.prefetch = mark_prefetch;
        f.latency = now() >= req.issueCycle ? now() - req.issueCycle : 0;
        f.evictedPaddr = evicted;
        f.cycle = now();
        pf->onFill(f);
    }
}

void
Cache::recvFill(const Request &req)
{
    MshrEntry *slot = mshr.find(req.paddr);
    GAZE_ASSERT(slot, cfg.name, ": fill without MSHR for 0x",
                std::hex, req.paddr);
    MshrEntry e = *slot;
    mshr.erase(req.paddr);

    // Mark the block as a prefetch only when this level is the
    // prefetch's target and no demand merged while it was in flight.
    bool pure_prefetch = e.wasPrefetchOnly && !e.demanded;
    bool mark_pf = pure_prefetch &&
                   e.downstream.fillLevel == cfg.level;

    // Fill wherever level >= fillLevel (response path allocation).
    Request fill_req = e.downstream;
    // Propagate the vaddr of the first waiter that knows it.
    for (const RequestPool::Node *w = e.waitersHead; w; w = w->next) {
        if (w->req.vaddr) {
            fill_req.vaddr = w->req.vaddr;
            break;
        }
    }
    if (cfg.level >= e.downstream.fillLevel)
        fillBlock(fill_req, mark_pf);

    if (e.demanded) {
        Cycle lat = now() - e.allocCycle;
        stat.demandMissLatencySum += lat;
        ++stat.demandMissLatencyCnt;
    }

    // Wake all waiters one cycle later (fill-to-use forwarding), then
    // recycle the chain.
    for (const RequestPool::Node *w = e.waitersHead; w; w = w->next) {
        if (w->req.requester)
            scheduleResponse(w->req, now() + 1);
    }
    pool->releaseChain(e.waitersHead);

    // This call arrives from the lower level's tick, after this
    // cache's own tick of the cycle: anything it set in motion (the
    // pending responses, a prefetcher pattern installed by onFill)
    // starts next cycle.
    sched.requestWake(now() + 1);
}

Cycle
Cache::nextWakeCycle() const
{
    // Anything queued (or retryable) makes the very next cycle
    // potentially productive — the polled engine would process it
    // then, so the event engine must too — unless the queue's head
    // is waiting on a full MSHR file (see tick()).
    if (!writeQ.empty() || unissuedMshrs > 0)
        return now() + 1;
    if (!readQ.empty() && !readWaitsOnMshr)
        return now() + 1;
    if (!prefetchQ.empty() && !pfWaitsOnMshr)
        return now() + 1;
    if (pf && pf->busy())
        return now() + 1;
    // Quiet or MSHR-blocked queues: the only self-known work is
    // delivering already scheduled responses (all strictly in the
    // future here, since tick() drained everything due).
    if (!responses.empty())
        return responses.top().ready;
    return kNeverWake;
}

bool
Prefetcher::issuePrefetch(Addr addr, uint32_t fill_level, bool virt)
{
    GAZE_ASSERT(context.cache, "prefetcher not attached");
    return context.cache->issuePrefetch(addr, fill_level, virt,
                                        context.cpu);
}

} // namespace gaze
