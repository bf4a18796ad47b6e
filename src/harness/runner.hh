/**
 * @file
 * Experiment runner: builds a System per (configuration, prefetcher,
 * workload/mix), executes warmup + measured phases, and caches the
 * no-prefetch baselines that speedup/coverage are computed against.
 * Every bench binary drives simulations exclusively through this.
 */

#pragma once

#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "sim/system.hh"
#include "workloads/suites.hh"

namespace gaze
{

namespace obs
{
class TraceSink;
}

class TraceStore;

/**
 * Observability attachments for a run. Deliberately NOT part of the
 * canonical cell text (harness/cell_key): obs never perturbs simulated
 * state — obs-on runs are bitwise identical to obs-off runs
 * (test_engine_diff proves it) — so cached campaign cells stay valid
 * whatever the obs settings are.
 */
struct ObsConfig
{
    /** Interval-sampler epoch in cycles; 0 disables the timeline. */
    uint64_t samplerInterval = 0;

    /** Trace sink for sim-time spans (not owned; null = no tracing). */
    obs::TraceSink *trace = nullptr;

    bool enabled() const { return samplerInterval != 0 || trace; }
};

/** One experiment's fixed context: system config + phase lengths. */
struct RunConfig
{
    SystemConfig system;

    /** Warmup instructions per core (0 = derive from scale). */
    uint64_t warmupInstr = 0;

    /** Measured instructions per core (0 = derive from scale). */
    uint64_t simInstr = 0;

    /** Observability hooks (excluded from the cell key; see above). */
    ObsConfig obs;

    uint64_t effectiveWarmup() const;
    uint64_t effectiveSim() const;
};

/** Prefetcher selection for one run. */
struct PfSpec
{
    std::string l1 = "none";
    std::string l2 = "none";

    bool isNone() const { return l1 == "none" && l2 == "none"; }

    std::string
    label() const
    {
        return l2 == "none" ? l1 : l1 + "+" + l2;
    }
};

/**
 * Build a PfSpec attaching factory spec @p spec at @p level ("l1" or
 * "l2"); fatal on anything else. Shared by the matrix driver and the
 * campaign expansion so the level axis is validated identically.
 */
PfSpec pfSpecAt(const std::string &spec, const std::string &level);

/**
 * Return @p cores as a core count when a System can be built with it:
 * a power of two in 1..kMaxCores (the LLC gets a fixed number of sets
 * per core and its set count must be a power of two). Fatal otherwise,
 * naming the value. Shared by the matrix driver and the campaign spec
 * parser so the core axis is validated identically.
 */
uint32_t checkedCoreCount(uint64_t cores);

/**
 * Thread-safe memo of no-prefetch baseline runs, keyed by the
 * canonical cell text (harness/cell_key — config + phases + mix
 * identity, so it is safe to share across Runners with different
 * configs). The first caller for a key computes; concurrent callers
 * for the same key block on a shared future instead of racing the map
 * or recomputing the simulation. Share one instance across the
 * thread-pool workers of a matrix or campaign run by passing it to
 * each Runner.
 *
 * Residency can be bounded: at most @p capacity completed entries
 * stay resident, evicted least recently used. In-flight entries are never evicted, so the
 * compute-once and failure-propagation guarantees hold at any
 * capacity: every caller that attaches to an in-flight key gets that
 * computation's result or exception. An evicted key simply recomputes
 * on its next request.
 */
class BaselineCache
{
  public:
    /** Default LRU capacity — generous: a full paper-scale sweep has
        well under this many distinct (config, mix) baselines. */
    static constexpr size_t kDefaultCapacity = 256;

    /** @p capacity 0 means unbounded. */
    explicit BaselineCache(size_t capacity = kDefaultCapacity);

    /**
     * Return the cached result for @p key, running @p compute (and
     * publishing its result) if this is the first request. If compute
     * throws, the exception propagates to every waiter of this key.
     * Returns by value: eviction may drop the cache's own copy at any
     * time, so no reference into the cache can be handed out safely.
     */
    RunResult getOrCompute(const std::string &key,
                           const std::function<RunResult()> &compute);

    size_t size() const;
    size_t capacity() const { return cap; }
    uint64_t evictions() const;

  private:
    struct Entry
    {
        std::shared_future<RunResult> fut;
        bool ready = false; ///< result (or exception) published
        std::list<std::string>::iterator lruIt; ///< valid when ready
    };

    void evictLocked();

    mutable std::mutex mtx;
    size_t cap;
    uint64_t evicted = 0;
    /** Node-based map: shared-state references outlive inserts. */
    std::map<std::string, Entry> entries;
    std::list<std::string> lru; ///< ready keys, most recent first
};

/**
 * Runs workloads under one RunConfig, memoizing baselines. A Runner
 * itself is not thread safe, but its baseline cache may be shared: by
 * default each Runner owns a private BaselineCache; pass a shared one
 * to deduplicate baselines across Runners and across pool workers.
 * Likewise traces: by default every run opens (regenerates) its own
 * via WorkloadDef::open(); pass a batch's TraceStore (not owned; it
 * must outlive the Runner) to read shared buffers instead.
 */
class Runner
{
  public:
    explicit Runner(const RunConfig &config,
                    std::shared_ptr<BaselineCache> baselines = nullptr,
                    TraceStore *traces = nullptr);

    /** Single-core run of @p w with @p pf. */
    RunResult run(const WorkloadDef &w, const PfSpec &pf);

    /** Multi-core run: one workload per core (homogeneous = N copies). */
    RunResult runMix(const std::vector<WorkloadDef> &mix,
                     const PfSpec &pf);

    /** Cached no-prefetch baseline for @p w. */
    RunResult baseline(const WorkloadDef &w);

    /** Cached no-prefetch baseline for a mix. */
    RunResult baselineMix(const std::vector<WorkloadDef> &mix);

    /** Convenience: run + baseline + metric math. */
    PrefetchMetrics evaluate(const WorkloadDef &w, const PfSpec &pf);

    /** Mix evaluation (speedup from mean IPC, as the paper plots). */
    PrefetchMetrics evaluateMix(const std::vector<WorkloadDef> &mix,
                                const PfSpec &pf);

    const RunConfig &config() const { return cfg; }

  private:
    RunResult execute(const std::vector<WorkloadDef> &mix,
                      const PfSpec &pf);

    RunConfig cfg;
    std::shared_ptr<BaselineCache> baselines;
    TraceStore *traces;
};

} // namespace gaze
