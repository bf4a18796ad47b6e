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
    GAZE_ASSERT(cfg.numCores >= 1 && cfg.numCores <= kMaxCores,
                "bad core count");
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

    for (uint32_t c = 0; c < cfg.numCores; ++c) {
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
        l2s.push_back(std::make_unique<Cache>(l2_p, llcCache.get(),
                                              &clock, &pool));

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
                                               &clock, &pool));

        cores.push_back(std::make_unique<Core>(cfg.core, c,
                                               l1ds.back().get(), &vm,
                                               &clock));
    }
}

System::~System()
{
    // Tear the hierarchy down first so every in-flight MSHR returns
    // its waiter chain, then hold the pool to its balance contract:
    // anything still outstanding is a leaked Request.
    cores.clear();
    l1ds.clear();
    l2s.clear();
    llcCache.reset();
    dramCtrl.reset();
    GAZE_ASSERT(pool.outstanding() == 0,
                "request pool imbalance at teardown: ",
                pool.outstanding(), " node(s) leaked");
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

std::array<uint64_t, kTickClasses>
System::componentTicks() const
{
    std::array<uint64_t, kTickClasses> t{};
    for (uint32_t c = 0; c < cfg.numCores; ++c) {
        t[size_t(TickClass::Core)] += cores[c]->wake().ticks();
        t[size_t(TickClass::L1d)] += l1ds[c]->wake().ticks();
        t[size_t(TickClass::L2)] += l2s[c]->wake().ticks();
    }
    t[size_t(TickClass::Llc)] = llcCache->wake().ticks();
    t[size_t(TickClass::Dram)] = dramCtrl->wake().ticks();
    return t;
}

uint64_t
System::eventsDispatched() const
{
    if (cfg.engine == EngineKind::Polled)
        return dispatchedEvents;
    uint64_t n = 0;
    for (uint64_t t : componentTicks())
        n += t;
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

template <typename DoneFn, typename PostCycleFn>
bool
System::driveLoop(uint64_t cap, DoneFn &&done, PostCycleFn &&post)
{
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
    s.kind = cfg.engine;
    s.cyclesTotal = clock;
    s.cyclesExecuted = executedCycles;
    s.cyclesSkipped = clock - executedCycles;
    s.eventsDispatched = eventsDispatched();
    s.ticks = componentTicks();
    return s;
}

} // namespace gaze
