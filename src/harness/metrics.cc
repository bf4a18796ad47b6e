#include "harness/metrics.hh"

#include <cmath>

#include "common/log.hh"

namespace gaze
{

double
RunResult::ipc() const
{
    if (cores.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &c : cores)
        sum += c.ipc();
    return sum / double(cores.size());
}

namespace
{

void
accumulate(CacheStats &into, const CacheStats &from)
{
    into.loadAccess += from.loadAccess;
    into.loadHit += from.loadHit;
    into.loadMiss += from.loadMiss;
    into.rfoAccess += from.rfoAccess;
    into.rfoHit += from.rfoHit;
    into.rfoMiss += from.rfoMiss;
    into.loadMissLate += from.loadMissLate;
    into.rfoMissLate += from.rfoMissLate;
    into.wbAccess += from.wbAccess;
    into.wbHit += from.wbHit;
    into.wbMiss += from.wbMiss;
    into.pfIssued += from.pfIssued;
    into.pfDroppedFull += from.pfDroppedFull;
    into.pfDroppedDup += from.pfDroppedDup;
    into.pfDroppedHit += from.pfDroppedHit;
    into.pfDroppedMshr += from.pfDroppedMshr;
    into.pfMshrWait += from.pfMshrWait;
    into.pfDemoted += from.pfDemoted;
    into.pfFilled += from.pfFilled;
    into.pfUseful += from.pfUseful;
    into.pfUseless += from.pfUseless;
    into.pfLate += from.pfLate;
    into.mshrMerge += from.mshrMerge;
    into.mshrFullStall += from.mshrFullStall;
    into.writebacksSent += from.writebacksSent;
    into.demandMissLatencySum += from.demandMissLatencySum;
    into.demandMissLatencyCnt += from.demandMissLatencyCnt;
}

} // namespace

RunResult
collectResult(System &sys, std::vector<CoreResult> cores)
{
    RunResult r;
    r.cores = std::move(cores);
    for (uint32_t c = 0; c < sys.numCores(); ++c) {
        accumulate(r.l1d, sys.l1d(c).stats());
        accumulate(r.l2, sys.l2(c).stats());
    }
    r.llc = sys.llc().stats();
    r.dram = sys.dram().stats();
    r.engine = sys.engineStats();
    for (uint32_t c = 0; c < sys.numCores(); ++c)
        r.instructionsRetired += sys.core(c).retired();

    // Per-scheme attribution, summed over L1D + L2 across cores (the
    // same levels the aggregate pf counters are summed over). Scheme
    // ids are 1-based indices into schemeNames(); the per-cache tables
    // grow lazily, so guard every index.
    const auto &names = sys.schemeNames();
    r.schemes.resize(names.size());
    for (size_t i = 0; i < names.size(); ++i)
        r.schemes[i].name = names[i];
    auto fold = [&](const std::vector<SchemeStats> &table) {
        for (size_t id = 1; id < table.size(); ++id) {
            if (id - 1 >= r.schemes.size())
                continue;
            auto &dst = r.schemes[id - 1];
            const auto &src = table[id];
            dst.issued += src.issued;
            dst.filled += src.filled;
            dst.useful += src.useful;
            dst.late += src.late;
            dst.useless += src.useless;
            dst.fillToUseSum += src.fillToUseSum;
            dst.fillToUseCnt += src.fillToUseCnt;
        }
    };
    for (uint32_t c = 0; c < sys.numCores(); ++c) {
        fold(sys.l1d(c).schemeStats());
        fold(sys.l2(c).schemeStats());
    }
    return r;
}

RunSummary
summarize(const RunResult &r)
{
    RunSummary s;
    s.ipc = r.ipc();
    s.pfIssued = r.l1d.pfIssued + r.l2.pfIssued;
    s.pfFilled = r.l1d.pfFilled + r.l2.pfFilled;
    s.pfUseful = r.l1d.pfUseful + r.l2.pfUseful;
    s.pfLate = r.l1d.pfLate + r.l2.pfLate;
    s.pfLateLoad = r.l1d.loadMissLate + r.l2.loadMissLate;
    s.pfLateRfo = r.l1d.rfoMissLate + r.l2.rfoMissLate;
    s.llcDemandMiss = r.llc.demandMiss();
    s.schemes = r.schemes;
    s.eventsDispatched = r.engine.eventsDispatched;
    s.cyclesExecuted = r.engine.cyclesExecuted;
    s.cyclesSkipped = r.engine.cyclesSkipped;
    s.minstrPerSec = r.minstrPerSec();
    return s;
}

PrefetchMetrics
computeMetrics(const RunSummary &base, const RunSummary &with_pf)
{
    PrefetchMetrics m;

    m.speedup = base.ipc > 0.0 ? with_pf.ipc / base.ipc : 1.0;

    // Overall accuracy over prefetch fills at L1D and L2C: useful
    // counts both demand-hit-after-fill and late (demand merged while
    // in flight), since late prefetches still hid most of the miss.
    m.pfFilled = with_pf.pfFilled;
    m.pfUseful = with_pf.pfUseful;
    m.pfLate = with_pf.pfLate;
    m.pfIssued = with_pf.pfIssued;
    uint64_t denom = with_pf.pfFilled + with_pf.pfLate;
    m.accuracy =
        denom ? double(with_pf.pfUseful + with_pf.pfLate) / denom : 0.0;
    if (m.accuracy > 1.0)
        m.accuracy = 1.0;

    // LLC coverage: removed fraction of baseline LLC demand misses.
    m.llcMissBase = base.llcDemandMiss;
    m.llcMissPf = with_pf.llcDemandMiss;
    if (m.llcMissBase > 0) {
        double removed = double(m.llcMissBase)
                         - double(std::min(m.llcMissPf, m.llcMissBase));
        m.coverage = removed / double(m.llcMissBase);
    }

    uint64_t useful_all = with_pf.pfUseful + with_pf.pfLate;
    m.lateFraction =
        useful_all ? double(with_pf.pfLate) / useful_all : 0.0;
    m.pfLateLoad = with_pf.pfLateLoad;
    m.pfLateRfo = with_pf.pfLateRfo;

    // Per-scheme breakdown: the same metric definitions as above,
    // restricted to blocks one scheme issued. Per-scheme coverage is
    // the scheme's useful fills over the *baseline* LLC misses — an
    // upper-bound share, since schemes can overlap.
    m.schemes.reserve(with_pf.schemes.size());
    for (const auto &s : with_pf.schemes) {
        SchemeMetrics sm;
        sm.name = s.name;
        sm.issued = s.issued;
        sm.filled = s.filled;
        sm.useful = s.useful;
        sm.late = s.late;
        sm.useless = s.useless;
        uint64_t sd = s.filled + s.late;
        sm.accuracy = sd ? double(s.useful + s.late) / sd : 0.0;
        if (sm.accuracy > 1.0)
            sm.accuracy = 1.0;
        if (base.llcDemandMiss > 0) {
            sm.coverage = double(std::min(s.useful, base.llcDemandMiss))
                          / double(base.llcDemandMiss);
        }
        sm.pollution = s.filled ? double(s.useless) / s.filled : 0.0;
        uint64_t su = s.useful + s.late;
        sm.lateFraction = su ? double(s.late) / su : 0.0;
        sm.avgFillToUse = s.fillToUseCnt
                              ? double(s.fillToUseSum) / s.fillToUseCnt
                              : 0.0;
        m.schemes.push_back(std::move(sm));
    }
    return m;
}

PrefetchMetrics
computeMetrics(const RunResult &base, const RunResult &with_pf)
{
    return computeMetrics(summarize(base), summarize(with_pf));
}

double
geomean(const std::vector<double> &values)
{
    GAZE_ASSERT(!values.empty(), "geomean of nothing");
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v > 1e-9 ? v : 1e-9);
    return std::exp(log_sum / double(values.size()));
}

SuiteSummary
summarizeSuite(const std::vector<const PrefetchMetrics *> &members)
{
    GAZE_ASSERT(!members.empty(), "empty suite");
    std::vector<double> speedups;
    double acc = 0.0, cov = 0.0, late = 0.0;
    for (const PrefetchMetrics *m : members) {
        speedups.push_back(m->speedup);
        acc += m->accuracy;
        cov += m->coverage;
        late += m->lateFraction;
    }
    SuiteSummary s;
    s.speedup = geomean(speedups);
    s.accuracy = acc / double(members.size());
    s.coverage = cov / double(members.size());
    s.lateFraction = late / double(members.size());
    return s;
}

} // namespace gaze
