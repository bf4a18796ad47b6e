#include "sim/dram.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace gaze
{

DramParams
DramParams::forCores(uint32_t cores)
{
    // Table II: 1C single channel 1 rank; 2C dual channel 1 rank;
    // 4C dual channel 2 ranks; 8C quad channel 2 ranks.
    DramParams p;
    if (cores <= 1) {
        p.channels = 1;
        p.ranksPerChannel = 1;
    } else if (cores <= 2) {
        p.channels = 2;
        p.ranksPerChannel = 1;
    } else if (cores <= 4) {
        p.channels = 2;
        p.ranksPerChannel = 2;
    } else {
        p.channels = 4;
        p.ranksPerChannel = 2;
    }
    return p;
}

Dram::Dram(const DramParams &params, const Cycle *clock_ptr)
    : cfg(params), clock(clock_ptr), channels(params.channels)
{
    GAZE_ASSERT(clock != nullptr, "dram needs a clock");
    banksPerChannel = cfg.ranksPerChannel * cfg.banksPerRank;
    blocksPerRow = cfg.rowBufferBytes / blockSize;
    for (auto &ch : channels)
        ch.banks.assign(banksPerChannel, Bank{});

    auto ns_to_cycles = [&](double ns) {
        return static_cast<Cycle>(std::ceil(ns * cfg.cpuGhz));
    };
    tRp = ns_to_cycles(cfg.tRpNs);
    tRcd = ns_to_cycles(cfg.tRcdNs);
    tCas = ns_to_cycles(cfg.tCasNs);

    // One 64B line = blockSize*8/busWidth transfers; each transfer takes
    // cpuGhz*1e3/mtps cycles.
    double transfers = double(blockSize) * 8.0 / cfg.busWidthBits;
    burst = static_cast<Cycle>(
        std::ceil(transfers * cfg.cpuGhz * 1000.0 / cfg.mtps));
    GAZE_ASSERT(burst >= 1, "degenerate burst length");

    // The issue horizon must exceed the worst-case bank access
    // (precharge+activate+CAS) or a single row miss on an idle bus
    // would stall command issue for the whole access latency; beyond
    // that, allow a few bursts of transfer pipelining.
    horizon = tRp + tRcd + tCas + 4 * burst;
}

Dram::Decoded
Dram::decode(Addr paddr) const
{
    uint64_t block = blockNumber(paddr);
    Decoded d;
    d.channel = static_cast<uint32_t>(block % cfg.channels);
    block /= cfg.channels;
    d.bank = static_cast<uint32_t>(block % banksPerChannel);
    block /= banksPerChannel;
    // Consecutive blocks in the same bank share a row buffer.
    d.row = block / blocksPerRow;
    return d;
}

bool
Dram::sendRequest(const Request &req)
{
    Decoded d = decode(req.paddr);
    Channel &ch = channels[d.channel];

    QueuedRequest q;
    q.req = req;
    q.enqueue = now();
    q.row = d.row;
    q.bank = d.bank;

    if (req.type == AccessType::Writeback) {
        // Writes are sunk unconditionally; drain mode keeps occupancy
        // bounded in practice (see Cache::sendRequest rationale).
        ch.wq.push_back(q);
        sched.requestWake(now());
        return true;
    }
    if (ch.rq.size() >= cfg.rqSize)
        return false;
    ch.rq.push_back(q);
    sched.requestWake(now());
    return true;
}

Dram::Pick
Dram::scanQueue(const Channel &ch, const RingBuffer<QueuedRequest> &q,
                bool demands_only) const
{
    Pick p{q.size(), q.size()};
    for (size_t i = 0; i < q.size(); ++i) {
        const QueuedRequest &r = q[i];
        if (demands_only && r.req.type == AccessType::Prefetch)
            continue;
        const Bank &b = ch.banks[r.bank];
        if (b.ready > now())
            continue;
        if (p.oldest == q.size())
            p.oldest = i; // queue order == age order
        if (p.rowHit == q.size() && b.openRow == int64_t(r.row)) {
            p.rowHit = i;
            if (p.oldest != q.size())
                break; // both found
        }
    }
    return p;
}

size_t
Dram::choose(Channel &ch, const Pick &p, size_t none) const
{
    if (p.rowHit == none || p.rowHit == p.oldest) {
        ch.rowHitBypasses = 0;
        return p.oldest;
    }
    if (ch.rowHitBypasses < rowHitBypassLimit) {
        ++ch.rowHitBypasses;
        return p.rowHit;
    }
    ch.rowHitBypasses = 0;
    return p.oldest;
}

bool
Dram::drainAfterHysteresis(const Channel &ch) const
{
    // Hysteretic write drain: start when the WQ is nearly full (or
    // reads are absent), stop when drained low.
    bool draining = ch.draining;
    if (!draining &&
        (ch.wq.size() >= cfg.wqDrainHigh || (ch.rq.empty() && !ch.wq.empty())))
        draining = true;
    if (draining && ch.wq.size() <= cfg.wqDrainLow)
        draining = false;
    return draining;
}

void
Dram::serviceChannel(Channel &ch)
{
    ch.draining = drainAfterHysteresis(ch);

    bool do_write = ch.draining && !ch.wq.empty();
    RingBuffer<QueuedRequest> &q = do_write ? ch.wq : ch.rq;
    if (q.empty())
        return;

    // One command per cycle per channel; bank-level parallelism is
    // implicit (each command occupies only its own bank), and the
    // shared data bus serializes transfers via the busFree high-water
    // mark, issuing at most `horizon` cycles ahead of the bus.
    if (ch.busFree > now() + horizon)
        return;

    // Demand reads outrank prefetch reads (memory controllers treat
    // speculative traffic as low priority); within each class,
    // FR-FCFS with the reorder bound applies.
    size_t idx = q.size();
    if (!do_write) {
        idx = choose(ch, scanQueue(ch, q, /*demands_only=*/true),
                     q.size());
        if (idx == q.size())
            idx = choose(ch, scanQueue(ch, q, /*demands_only=*/false),
                         q.size());
    } else {
        idx = choose(ch, scanQueue(ch, q, /*demands_only=*/false),
                     q.size());
    }
    if (idx == q.size())
        return;

    QueuedRequest r = q[idx];
    q.erase(idx);

    Bank &bank = ch.banks[r.bank];
    Cycle start = std::max(now(), bank.ready);
    Cycle access;
    if (bank.openRow == int64_t(r.row)) {
        access = tCas;
        ++stat.rowHits;
    } else if (bank.openRow < 0) {
        access = tRcd + tCas;
        ++stat.rowMisses;
    } else {
        access = tRp + tRcd + tCas;
        ++stat.rowMisses;
    }
    Cycle data_start = std::max(start + access, ch.busFree);
    Cycle data_end = data_start + burst;

    bank.openRow = int64_t(r.row);
    bank.ready = data_end;
    ch.busFree = data_end;

    stat.busBusyCycles += burst;
    epochBusy += burst;

    if (do_write) {
        ++stat.writes;
        return; // no response for writes
    }

    ++stat.reads;
    stat.readLatencySum += data_end - r.enqueue;
    completions.push(Completion{data_end, completionSeq++, r.req});
}

void
Dram::catchUpEpochs()
{
    // Boundaries strictly before the current cycle: under polling
    // each fires at exactly epochStart + epochLength (checked every
    // cycle), publishing the busy count accumulated so far — which
    // cannot have changed while the controller slept. Looping brings
    // a long sleep through any number of (empty) epochs.
    while (now() - epochStart > epochLength) {
        double denom = double(epochLength) * cfg.channels;
        lastEpochUtil = double(epochBusy) / denom;
        epochBusy = 0;
        epochStart += epochLength;
    }
}

Cycle
Dram::channelWakeCycle(const Channel &ch) const
{
    // A pending drain-mode flip changes state on the next tick even
    // if nothing issues; tick then, or a request arriving mid-sleep
    // would meet the unflipped mode.
    if (drainAfterHysteresis(ch) != ch.draining)
        return now() + 1;
    const RingBuffer<QueuedRequest> &q =
        ch.draining && !ch.wq.empty() ? ch.wq : ch.rq;
    if (q.empty())
        return kNeverWake; // only sendRequest can create work here

    // serviceChannel issues on the first cycle that is past the bus
    // horizon and finds some queued request's bank ready. Scan
    // priority and choose() pick *which* request, never *whether*.
    Cycle gate = ch.busFree > horizon ? ch.busFree - horizon : 0;
    Cycle ready = kNeverWake;
    for (size_t i = 0; i < q.size(); ++i)
        ready = std::min(ready, ch.banks[q[i].bank].ready);

    // choose() clears rowHitBypasses on every cycle that passes the
    // horizon without a ready bank; wake once at the gate so a real
    // tick performs that reset instead of replaying it lazily.
    if (ch.rowHitBypasses != 0 && gate < ready)
        return std::max(now() + 1, gate);
    return std::max({now() + 1, gate, ready});
}

Cycle
Dram::nextWakeCycle() const
{
    Cycle wake = completions.empty() ? kNeverWake
                                     : completions.top().ready;
    for (const auto &ch : channels)
        wake = std::min(wake, channelWakeCycle(ch));
    return wake;
}

void
Dram::tick()
{
    // Wake-hint gate (see TickEvent). Epoch boundaries crossed while
    // skipping are reconstructed exactly by catchUpEpochs(), and
    // recentUtilization() is already sleep-aware.
    if (!sched.due(now()))
        return;

    catchUpEpochs();

    while (!completions.empty() && completions.top().ready <= now()) {
        Request r = completions.top().req;
        completions.pop();
        if (r.requester)
            r.requester->recvFill(r);
    }

    for (auto &ch : channels)
        serviceChannel(ch);

    if (now() - epochStart >= epochLength) {
        // Utilization is per-channel-normalized so 1.0 means every data
        // bus was busy every cycle of the epoch.
        double denom = double(epochLength) * cfg.channels;
        lastEpochUtil = double(epochBusy) / denom;
        epochBusy = 0;
        epochStart += epochLength;
    }

    sched.tickDone(nextWakeCycle());
}

double
Dram::recentUtilization() const
{
    // Readers (DSPatch, during a cache's tick) run before the
    // controller's tick of the cycle, so only boundaries strictly in
    // the past count — compute what catchUpEpochs() will later make
    // official without mutating anything.
    Cycle t = now();
    if (t - epochStart <= epochLength)
        return lastEpochUtil;
    if (t - epochStart > 2 * epochLength)
        return 0.0; // >= 2 idle boundaries passed: latest epoch empty
    return double(epochBusy) / (double(epochLength) * cfg.channels);
}

void
Dram::resetStats()
{
    stat.reset();
}

size_t
Dram::rqOccupancy() const
{
    size_t n = 0;
    for (const auto &ch : channels)
        n += ch.rq.size();
    return n;
}

} // namespace gaze
