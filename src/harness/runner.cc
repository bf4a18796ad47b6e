#include "harness/runner.hh"

#include "harness/wallclock.hh"

#include "common/log.hh"
#include "harness/cell_key.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "prefetchers/factory.hh"
#include "prefetchers/registry.hh"
#include "workloads/trace_store.hh"

namespace gaze
{

PfSpec
pfSpecAt(const std::string &spec, const std::string &level)
{
    // Canonicalize (and thereby validate) here, at the single choke
    // point every matrix/campaign cell passes through: the PfSpec —
    // and with it the canonical cell text, the baseline cache key and
    // the campaign cache address — only ever sees the one canonical
    // spelling, so "gaze:n=1:region=2048" and "gaze:region=2048:n=1"
    // are the same cell.
    PfSpec pf;
    if (level == "l1")
        pf.l1 = canonicalPrefetcherSpec(spec);
    else if (level == "l2")
        pf.l2 = canonicalPrefetcherSpec(spec);
    else
        GAZE_FATAL("unknown attach level '", level,
                   "' (want l1 or l2)");
    return pf;
}

uint32_t
checkedCoreCount(uint64_t cores)
{
    if (cores < 1 || cores > kMaxCores || (cores & (cores - 1)) != 0)
        GAZE_FATAL("unsupported core count ", cores,
                   ": must be a power of two in 1..", kMaxCores);
    return static_cast<uint32_t>(cores);
}

BaselineCache::BaselineCache(size_t capacity) : cap(capacity) {}

RunResult
BaselineCache::getOrCompute(const std::string &key,
                            const std::function<RunResult()> &compute)
{
    std::shared_future<RunResult> fut;
    std::promise<RunResult> prom;
    bool owner = false;
    {
        std::unique_lock<std::mutex> lock(mtx);
        auto it = entries.find(key);
        if (it == entries.end()) {
            fut = prom.get_future().share();
            Entry e;
            e.fut = fut;
            entries.emplace(key, std::move(e));
            owner = true;
        } else {
            fut = it->second.fut;
            if (it->second.ready) {
                lru.erase(it->second.lruIt);
                lru.push_front(key);
                it->second.lruIt = lru.begin();
            }
        }
    }
    // Compute outside the lock so unrelated keys proceed in parallel;
    // only waiters of this key block, on the future. Both sides show
    // up on the host-time trace track: computing a baseline is real
    // work, waiting on one is contention worth seeing.
    if (owner) {
        obs::HostSpan span(obs::globalTrace(), "baseline compute");
        try {
            prom.set_value(compute());
        } catch (...) {
            prom.set_exception(std::current_exception());
        }
        std::unique_lock<std::mutex> lock(mtx);
        auto it = entries.find(key);
        // In-flight entries are never on the LRU list, so nothing can
        // have evicted ours while we computed.
        GAZE_ASSERT(it != entries.end() && !it->second.ready,
                    "baseline entry vanished while in flight");
        it->second.ready = true;
        lru.push_front(key);
        it->second.lruIt = lru.begin();
        evictLocked();
    } else {
        obs::HostSpan span(obs::globalTrace(), "baseline wait");
        fut.wait();
    }
    // By value: our shared_future copy keeps the shared state alive
    // even if the map entry was evicted the moment it became ready.
    return fut.get();
}

void
BaselineCache::evictLocked()
{
    // Only completed entries are evictable; failed computes count as
    // completed too (their memoized exception ages out like any other
    // result, after which the key recomputes fresh).
    while (cap != 0 && lru.size() > cap) {
        entries.erase(lru.back());
        lru.pop_back();
        ++evicted;
    }
}

size_t
BaselineCache::size() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return entries.size();
}

uint64_t
BaselineCache::evictions() const
{
    std::unique_lock<std::mutex> lock(mtx);
    return evicted;
}

uint64_t
RunConfig::effectiveWarmup() const
{
    return warmupInstr ? warmupInstr : scaledRecords(200'000);
}

uint64_t
RunConfig::effectiveSim() const
{
    return simInstr ? simInstr : scaledRecords(400'000);
}

Runner::Runner(const RunConfig &config,
               std::shared_ptr<BaselineCache> baselines_,
               TraceStore *traces_)
    : cfg(config), baselines(std::move(baselines_)), traces(traces_)
{
    if (!baselines)
        baselines = std::make_shared<BaselineCache>();
}

RunResult
Runner::execute(const std::vector<WorkloadDef> &mix, const PfSpec &pf)
{
    SystemConfig sys_cfg = cfg.system;
    sys_cfg.numCores = static_cast<uint32_t>(mix.size());
    System sys(sys_cfg);

    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.reserve(mix.size());
    for (const auto &w : mix)
        sources.push_back(traces ? traces->open(w) : w.open());
    for (uint32_t c = 0; c < sys.numCores(); ++c)
        sys.setTrace(c, sources[c].get());

    for (uint32_t c = 0; c < sys.numCores(); ++c) {
        sys.setL1Prefetcher(c, makePrefetcher(pf.l1));
        sys.setL2Prefetcher(c, makePrefetcher(pf.l2));
    }

    // Observability attachments. The registry binds pointers at live
    // counter fields (zero hot-path indirection); the sampler only
    // joins after warmup + resetStats so its rows cover measured time.
    // When GAZE_OBS is compiled out the engine hooks are no-ops, so
    // none of this is wired up (GAZE_OBS_ON is a compile-time 0).
    obs::Registry registry;
    std::unique_ptr<obs::IntervalSampler> sampler;
    const bool obsOn = GAZE_OBS_ON && cfg.obs.enabled();
    std::string obsLabel;
    if (obsOn) {
        std::string wl;
        for (const auto &w : mix)
            wl += (wl.empty() ? "" : "+") + w.name;
        obsLabel = pf.label() + "/" + wl;
        if (cfg.obs.samplerInterval) {
            sys.bindObsCounters(&registry);
            registry.seal();
            sampler = std::make_unique<obs::IntervalSampler>(
                &registry, cfg.obs.samplerInterval);
        }
        if (cfg.obs.trace)
            sys.setObsTrace(cfg.obs.trace, obsLabel);
    }

    WallTimer timer;
    sys.run(cfg.effectiveWarmup());
    sys.resetStats();
    if (sampler) {
        sampler->startAt(sys.cycle());
        sys.setObsSampler(sampler.get());
    }
    auto cores = sys.simulate(cfg.effectiveSim());
    if (sampler) {
        sampler->finish(sys.cycle());
        sys.setObsSampler(nullptr);
    }
    RunResult result = collectResult(sys, std::move(cores));
    result.wallSeconds = timer.seconds();
    if (sampler)
        result.obsSamples = sampler->takeSeries();
    return result;
}

RunResult
Runner::run(const WorkloadDef &w, const PfSpec &pf)
{
    return execute({w}, pf);
}

RunResult
Runner::runMix(const std::vector<WorkloadDef> &mix, const PfSpec &pf)
{
    return execute(mix, pf);
}

RunResult
Runner::baseline(const WorkloadDef &w)
{
    return baselineMix({w});
}

RunResult
Runner::baselineMix(const std::vector<WorkloadDef> &mix)
{
    // The canonical cell text keys the baseline, so Runners with
    // different configs (or differently recorded traces of the same
    // workload name) sharing one cache can never collide.
    std::string key = canonicalCellText(cfg, PfSpec{}, mix);
    return baselines->getOrCompute(key,
                                   [&] { return execute(mix, PfSpec{}); });
}

PrefetchMetrics
Runner::evaluate(const WorkloadDef &w, const PfSpec &pf)
{
    const RunResult &base = baseline(w);
    RunResult r = run(w, pf);
    return computeMetrics(base, r);
}

PrefetchMetrics
Runner::evaluateMix(const std::vector<WorkloadDef> &mix, const PfSpec &pf)
{
    const RunResult &base = baselineMix(mix);
    RunResult r = runMix(mix, pf);
    return computeMetrics(base, r);
}

} // namespace gaze
