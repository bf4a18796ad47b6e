#include "sim/system.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/obs.hh"
#include "obs/registry.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

namespace gaze
{

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Event:
        return "event";
      case EngineKind::Polled:
        return "polled";
    }
    return "?";
}

EngineKind
parseEngineKind(const std::string &name)
{
    if (name == "event")
        return EngineKind::Event;
    if (name == "polled")
        return EngineKind::Polled;
    GAZE_FATAL("unknown simulation engine '", name,
               "' (known: event, polled)");
}

System::System(const SystemConfig &config)
    : cfg(config), vm(34)
{
    GAZE_ASSERT(cfg.numCores >= 1 && cfg.numCores <= 64, "bad core count");
    // Validate the replacement policy eagerly, before any cache is
    // built, so a bad campaign/CLI string dies here with the full
    // list instead of surfacing from some worker mid-run (mirrors the
    // prefetcher registry's unknown-scheme diagnostics).
    if (!isKnownReplacementPolicy(cfg.replacement))
        GAZE_FATAL("unknown replacement policy '", cfg.replacement,
                   "' in SystemConfig (known: ",
                   knownReplacementPolicyList(), ")");

    DramParams dp = cfg.dramAuto ? DramParams::forCores(cfg.numCores)
                                 : cfg.dram;
    if (cfg.dramAuto) {
        // Keep any user-tuned timing/bus fields from cfg.dram.
        dp.mtps = cfg.dram.mtps;
        dp.cpuGhz = cfg.dram.cpuGhz;
    }
    dramCtrl = std::make_unique<Dram>(dp, &clock);

    CacheParams llc_p;
    llc_p.name = "LLC";
    llc_p.level = levelLLC;
    llc_p.ways = cfg.llcWays;
    llc_p.sets = CacheParams::setsFor(cfg.llcBytesPerCore * cfg.numCores,
                                      cfg.llcWays);
    llc_p.latency = cfg.llcLatency;
    llc_p.mshrs = cfg.llcMshrsPerCore * cfg.numCores;
    llc_p.rqSize = 64 * cfg.numCores;
    llc_p.wqSize = 64 * cfg.numCores;
    llc_p.pqSize = 32 * cfg.numCores;
    llc_p.replacement = cfg.replacement;
    llcCache = std::make_unique<Cache>(llc_p, dramCtrl.get(), &clock,
                                       &pool);

    // In threaded mode the per-core caches get private request pools
    // (slice-local allocation, no sharing across workers) and send to
    // the LLC through a staging portal; see executeThreadedCycle().
    bool threaded = threadedActive();
    RequestPool *corePool = threaded ? nullptr : &pool;

    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        MemoryDevice *llcPort = llcCache.get();
        if (threaded) {
            portals.push_back(std::make_unique<LlcPortal>(llcCache.get()));
            llcPort = portals.back().get();
        }

        CacheParams l2_p;
        l2_p.name = "L2C" + std::to_string(c);
        l2_p.level = levelL2;
        l2_p.ways = cfg.l2Ways;
        l2_p.sets = CacheParams::setsFor(cfg.l2Bytes, cfg.l2Ways);
        l2_p.latency = cfg.l2Latency;
        l2_p.mshrs = cfg.l2Mshrs;
        l2_p.rqSize = 32;
        l2_p.wqSize = 32;
        l2_p.pqSize = 16;
        l2_p.replacement = cfg.replacement;
        l2s.push_back(std::make_unique<Cache>(l2_p, llcPort, &clock,
                                              corePool));

        CacheParams l1_p;
        l1_p.name = "L1D" + std::to_string(c);
        l1_p.level = levelL1;
        l1_p.ways = cfg.l1dWays;
        l1_p.sets = CacheParams::setsFor(cfg.l1dBytes, cfg.l1dWays);
        l1_p.latency = cfg.l1dLatency;
        l1_p.mshrs = cfg.l1dMshrs;
        l1_p.rqSize = 64;
        l1_p.wqSize = 64;
        l1_p.pqSize = 8;
        l1_p.replacement = cfg.replacement;
        l1ds.push_back(std::make_unique<Cache>(l1_p, l2s.back().get(),
                                               &clock, corePool));

        cores.push_back(std::make_unique<Core>(cfg.core, c,
                                               l1ds.back().get(), &vm,
                                               &clock));
    }

    if (threaded) {
        sliceWake.assign(cfg.numCores, 0);
        activeSlices.reserve(cfg.numCores);
        // One L2 can push at most its prefetch issue rate (bounded by
        // its tag ports) plus a retry and a demand-side spill into the
        // LLC prefetch queue per cycle; 2*tagPorts + 2 over-covers it.
        // replay() asserts no staged send is ever rejected, so if this
        // bound were ever wrong the run dies loudly instead of
        // silently diverging from the single-threaded engines.
        maxPqSendsPerSlice = 2 * l2s[0]->params().tagPorts + 2;
    }
}

System::~System()
{
    // Stop the worker team before the components it ticks go away.
    team.reset();
    // Tear the hierarchy down first so every in-flight MSHR returns
    // its waiter chain, then hold the pool to its balance contract:
    // anything still outstanding is a leaked Request.
    cores.clear();
    l1ds.clear();
    l2s.clear();
    portals.clear();
    llcCache.reset();
    dramCtrl.reset();
    GAZE_ASSERT(pool.outstanding() == 0,
                "request pool imbalance at teardown: ",
                pool.outstanding(), " node(s) leaked");
}

bool
System::threadedActive() const
{
    return cfg.simThreads > 1 && cfg.numCores > 1;
}

void
System::setTrace(uint32_t cpu, TraceSource *trace)
{
    GAZE_ASSERT(cpu < cfg.numCores, "cpu out of range");
    cores[cpu]->setTrace(trace);
}

void
System::setL1Prefetcher(uint32_t cpu, std::unique_ptr<Prefetcher> pf)
{
    GAZE_ASSERT(cpu < cfg.numCores, "cpu out of range");
    if (!pf)
        return;
    pf->setSchemeId(schemeIdFor(pf->name(), levelL1));
    l1ds[cpu]->setPrefetcher(pf.get(), &vm, dramCtrl.get(), cpu);
    ownedPrefetchers.push_back(std::move(pf));
}

void
System::setL2Prefetcher(uint32_t cpu, std::unique_ptr<Prefetcher> pf)
{
    GAZE_ASSERT(cpu < cfg.numCores, "cpu out of range");
    if (!pf)
        return;
    pf->setSchemeId(schemeIdFor(pf->name(), levelL2));
    l2s[cpu]->setPrefetcher(pf.get(), &vm, dramCtrl.get(), cpu);
    ownedPrefetchers.push_back(std::move(pf));
}

uint16_t
System::schemeIdFor(const std::string &name, uint32_t level)
{
    std::string label = name + (level == levelL1 ? "@l1" : "@l2");
    for (size_t i = 0; i < schemeLabels.size(); ++i) {
        if (schemeLabels[i] == label)
            return static_cast<uint16_t>(i + 1);
    }
    GAZE_ASSERT(schemeLabels.size() < 0xFFFF, "scheme id space exhausted");
    schemeLabels.push_back(label);
    return static_cast<uint16_t>(schemeLabels.size());
}

void
System::bindObsCounters(obs::Registry *reg)
{
    GAZE_ASSERT(reg, "bindObsCounters needs a registry");

    auto bindCache = [&](const std::string &prefix, Cache *c) {
        const CacheStats &s = c->stats();
#define GAZE_OBS_CACHE_STAT(f)                                             \
    reg->bindCounter(prefix + "." #f, &s.f);
#define GAZE_OBS_CORE_STAT(f)
#define GAZE_OBS_DRAM_STAT(f)
#include "obs/stat_names.inc"
#undef GAZE_OBS_CACHE_STAT
#undef GAZE_OBS_CORE_STAT
#undef GAZE_OBS_DRAM_STAT
        reg->bindGauge(prefix + ".pqOccupancy",
                       [c] { return uint64_t(c->pqOccupancy()); });
        reg->bindGauge(prefix + ".mshrOccupancy",
                       [c] { return uint64_t(c->mshrOccupancy()); });
    };

    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        const std::string n = std::to_string(c);
        const CoreStats &s = cores[c]->stats();
#define GAZE_OBS_CACHE_STAT(f)
#define GAZE_OBS_CORE_STAT(f)                                              \
    reg->bindCounter("core" + n + "." #f, &s.f);
#define GAZE_OBS_DRAM_STAT(f)
#include "obs/stat_names.inc"
#undef GAZE_OBS_CACHE_STAT
#undef GAZE_OBS_CORE_STAT
#undef GAZE_OBS_DRAM_STAT
        bindCache("l1d" + n, l1ds[c].get());
        bindCache("l2" + n, l2s[c].get());
    }
    bindCache("llc", llcCache.get());

    {
        const DramStats &s = dramCtrl->stats();
#define GAZE_OBS_CACHE_STAT(f)
#define GAZE_OBS_CORE_STAT(f)
#define GAZE_OBS_DRAM_STAT(f) reg->bindCounter("dram." #f, &s.f);
#include "obs/stat_names.inc"
#undef GAZE_OBS_CACHE_STAT
#undef GAZE_OBS_CORE_STAT
#undef GAZE_OBS_DRAM_STAT
    }

    // Engine-speed counters: deterministic per engine kind, not
    // across kinds (cross-engine comparisons must filter "engine.*"
    // out, exactly as EngineStats is excluded from the bitwise
    // differential checks).
    reg->bindCounter("engine.cycle", &clock);
    reg->bindCounter("engine.executedCycles", &executedCycles);
    reg->bindGauge("engine.dispatchedEvents",
                   [this] { return eventsDispatched(); });
}

void
System::setObsSampler(obs::IntervalSampler *sampler)
{
    obsSampler = sampler;
}

void
System::setObsTrace(obs::TraceSink *sink, const std::string &label)
{
    obsTrace = sink;
    if (!sink)
        return;
    obsEngineTid = sink->allocTrack(obs::kPidSim, label + " engine");
    obsCoreTids.clear();
    for (uint32_t c = 0; c < cfg.numCores; ++c)
        obsCoreTids.push_back(sink->allocTrack(
            obs::kPidSim, label + " core" + std::to_string(c)));
    obsDramTid = sink->allocTrack(obs::kPidSim, label + " dram");
}

void
System::obsPhaseSpan(const char *name, Cycle begin)
{
    if (!obsTrace || clock < begin)
        return;
    obsTrace->span(obs::kPidSim, obsEngineTid, name, begin,
                   clock - begin);
    obsTrace->counter(obs::kPidSim, obsDramTid, "dram_util", clock,
                      dramCtrl->recentUtilization());
}

void
System::tickComponents()
{
    // Each tick opens with its wake-hint gate; testing it here first
    // makes a component whose hint lies ahead cost a compare, not a
    // call. It is tested immediately before each tick, in tick order,
    // because an earlier tick this cycle may lower a later hint.
    for (auto &c : cores)
        if (c->wake().due(clock))
            c->tick();
    for (auto &c : l1ds)
        if (c->wake().due(clock))
            c->tick();
    for (auto &c : l2s)
        if (c->wake().due(clock))
            c->tick();
    if (llcCache->wake().due(clock))
        llcCache->tick();
    if (dramCtrl->wake().due(clock))
        dramCtrl->tick();
}

void
System::tickAll()
{
    tickComponents();
    ++clock;
    ++executedCycles;
    dispatchedEvents += 3 * uint64_t(cfg.numCores) + 2;
}

Cycle
System::minWakeHint() const
{
    Cycle m = llcCache->wake().hint();
    m = std::min(m, dramCtrl->wake().hint());
    for (const auto &c : cores)
        m = std::min(m, c->wake().hint());
    for (const auto &c : l1ds)
        m = std::min(m, c->wake().hint());
    for (const auto &c : l2s)
        m = std::min(m, c->wake().hint());
    return m;
}

uint64_t
System::eventsDispatched() const
{
    if (cfg.engine == EngineKind::Polled || threadedActive())
        return dispatchedEvents;
    uint64_t n = llcCache->wake().ticks() + dramCtrl->wake().ticks();
    for (uint32_t c = 0; c < cfg.numCores; ++c)
        n += cores[c]->wake().ticks() + l1ds[c]->wake().ticks()
             + l2s[c]->wake().ticks();
    return n;
}

template <typename DoneFn, typename PostCycleFn>
bool
System::eventLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
    while (!done()) {
        if (clock >= cap)
            return false;
        // Before the minimum hint every tick gate fails, so the polled
        // engine would change nothing there (and done() cannot flip):
        // jump straight to it.
        Cycle next = minWakeHint();
        if (next >= cap) {
            // Asleep past the cap, or wedged (kNeverWake with targets
            // unmet): the polled engine would spin no-op cycles there.
            clock = cap;
            return false;
        }
        clock = std::max(clock, next);
        GAZE_OBS_HOOK(if (obsSampler) obsSampler->advanceTo(clock););
        tickComponents();
        ++clock;
        ++executedCycles;
        post();
    }
    return true;
}

template <typename DoneFn, typename PostCycleFn>
bool
System::polledLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
    while (!done()) {
        if (clock >= cap)
            return false;
        GAZE_OBS_HOOK(if (obsSampler) obsSampler->advanceTo(clock););
        tickAll();
        post();
    }
    return true;
}

Cycle
System::executeThreadedCycle()
{
    // Which slices are due this cycle? sliceWake is exact (see below),
    // so a skipped slice's ticks would all have been no-ops.
    activeSlices.clear();
    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        if (sliceWake[c] <= clock)
            activeSlices.push_back(c);
    }
    uint32_t active = static_cast<uint32_t>(activeSlices.size());

    // Backpressure guard: the parallel phase replaces the LLC's
    // accept/reject answer with unconditional staging, which is only
    // faithful if the LLC could not have rejected anything. Its read
    // and writeback queues are sized so the L2 MSHRs can never
    // overrun them; the prefetch queue is the one that can fill, so
    // run parallel only when even a worst-case burst fits, and fall
    // back to exact inline (passthrough) execution otherwise.
    bool parallel =
        active > 1
        && llcCache->pqOccupancy()
                   + uint64_t(active) * maxPqSendsPerSlice
               <= llcCache->params().pqSize;

    if (parallel) {
        for (uint32_t c : activeSlices)
            portals[c]->setStaging(true);
        team->runCycle(active);
        for (uint32_t c : activeSlices) {
            // Replay in core order: the LLC sees the same arrival
            // sequence the single-threaded engines produce.
            portals[c]->setStaging(false);
            portals[c]->replay();
        }
    } else {
        // Serial fallback (also the 0/1-active-slice fast path):
        // exact single-threaded semantics, portals passing through.
        for (uint32_t c : activeSlices) {
            cores[c]->tick();
            l1ds[c]->tick();
            l2s[c]->tick();
        }
    }

    // Cross-core structures always run serially, every executed
    // cycle, on this thread — this is where LLC fills mutate L2s/L1s
    // and cores, which is why the wake recomputation must come after.
    llcCache->tick();
    dramCtrl->tick();

    ++executedCycles;
    dispatchedEvents += 3 * uint64_t(active) + 2;

    // Recompute every wake with the clock still naming the executed
    // cycle (nextWakeCycle() answers relative to now()). Serial-phase
    // fills can have woken slices that did not run this cycle, so all
    // of them are refreshed, not just the active ones.
    Cycle wake = kNeverWake;
    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        Cycle w = cores[c]->nextWakeCycle();
        w = std::min(w, l1ds[c]->nextWakeCycle());
        w = std::min(w, l2s[c]->nextWakeCycle());
        sliceWake[c] = w;
        wake = std::min(wake, w);
    }
    wake = std::min(wake, llcCache->nextWakeCycle());
    wake = std::min(wake, dramCtrl->nextWakeCycle());
    ++clock;
    return wake;
}

template <typename DoneFn, typename PostCycleFn>
bool
System::threadedLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
    if (!team) {
        // One worker per extra slice at most; the team persists
        // across run()/simulate() calls (parked in between).
        team = std::make_unique<SliceTeam>(
            std::min(cfg.simThreads, cfg.numCores));
    }
    // The first cycle of a (re)started run considers every slice,
    // exactly as the polled engine's first tickAll() does.
    std::fill(sliceWake.begin(), sliceWake.end(), clock);
    Cycle wake = clock;

    team->beginRun([this](uint32_t i) {
        uint32_t c = activeSlices[i];
        cores[c]->tick();
        l1ds[c]->tick();
        l2s[c]->tick();
    });
    struct RunGuard
    {
        SliceTeam *t;
        ~RunGuard() { t->endRun(); }
    } guard{team.get()};

    while (!done()) {
        if (clock >= cap)
            return false;
        if (wake == kNeverWake) {
            // Nothing schedulable with targets unmet: wedged; jump to
            // the cap exactly as the event engine does.
            clock = cap;
            return false;
        }
        if (wake > clock) {
            clock = std::min(wake, cap);
            if (clock >= cap)
                return false;
        }
        GAZE_OBS_HOOK(if (obsSampler) obsSampler->advanceTo(clock););
        wake = executeThreadedCycle();
        post();
    }
    return true;
}

template <typename DoneFn, typename PostCycleFn>
bool
System::driveLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
    if (threadedActive())
        return threadedLoop(cap, done, post);
    switch (cfg.engine) {
      case EngineKind::Event:
        return eventLoop(cap, done, post);
      case EngineKind::Polled:
        return polledLoop(cap, done, post);
    }
    return false;
}

void
System::run(uint64_t instr_per_core)
{
    std::vector<uint64_t> target(cfg.numCores);
    for (uint32_t c = 0; c < cfg.numCores; ++c)
        target[c] = cores[c]->retired() + instr_per_core;

    uint64_t cap = clock + instr_per_core * cfg.maxCyclesPerInstr
                   + 1000000;
    auto all_done = [&] {
        for (uint32_t c = 0; c < cfg.numCores; ++c) {
            if (cores[c]->retired() < target[c])
                return false;
        }
        return true;
    };

    [[maybe_unused]] Cycle runBegin = clock;
    if (!driveLoop(cap, all_done, [] {}))
        GAZE_WARN("run() hit the cycle cap; simulation wedged?");
    GAZE_OBS_HOOK(obsPhaseSpan("run", runBegin););
}

void
System::resetStats()
{
    for (auto &c : cores)
        c->resetStats();
    for (auto &c : l1ds)
        c->resetStats();
    for (auto &c : l2s)
        c->resetStats();
    llcCache->resetStats();
    dramCtrl->resetStats();
}

std::vector<CoreResult>
System::simulate(uint64_t instr_per_core)
{
    std::vector<uint64_t> base(cfg.numCores);
    std::vector<CoreResult> out(cfg.numCores);
    std::vector<bool> finished(cfg.numCores, false);
    Cycle start = clock;

    for (uint32_t c = 0; c < cfg.numCores; ++c)
        base[c] = cores[c]->retired();

    uint64_t cap = clock + instr_per_core * cfg.maxCyclesPerInstr
                   + 1000000;
    uint32_t remaining = cfg.numCores;

    auto recordFinishers = [&] {
        for (uint32_t c = 0; c < cfg.numCores; ++c) {
            if (finished[c])
                continue;
            if (cores[c]->retired() - base[c] >= instr_per_core) {
                finished[c] = true;
                out[c].instructions = cores[c]->retired() - base[c];
                out[c].cycles = clock - start;
                --remaining;
                GAZE_OBS_HOOK(
                    if (obsTrace && c < obsCoreTids.size())
                        obsTrace->span(obs::kPidSim, obsCoreTids[c],
                                       "core active", start,
                                       clock - start););
            }
        }
    };

    driveLoop(cap, [&] { return remaining == 0; }, recordFinishers);
    GAZE_OBS_HOOK(obsPhaseSpan("simulate", start););

    if (remaining > 0)
        GAZE_WARN("simulate() hit the cycle cap with ", remaining,
                  " cores unfinished");
    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        if (!finished[c]) {
            out[c].instructions = cores[c]->retired() - base[c];
            out[c].cycles = clock - start;
        }
    }
    return out;
}

EngineStats
System::engineStats() const
{
    EngineStats s;
    s.eventDriven = cfg.engine != EngineKind::Polled || threadedActive();
    s.kind = cfg.engine;
    s.simThreads = cfg.simThreads;
    s.cyclesTotal = clock;
    s.cyclesExecuted = executedCycles;
    s.cyclesSkipped = clock - executedCycles;
    s.eventsDispatched = eventsDispatched();
    return s;
}

} // namespace gaze
