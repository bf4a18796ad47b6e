/**
 * @file
 * Campaign execution: take an expanded Campaign, skip every cell and
 * baseline whose result is already in the ResultCache, and run the
 * rest on the driver thread pool — optionally only this process's
 * shard of them (--shard=i/n assigns jobs round-robin over the
 * deterministic job order, so n processes partition the work with no
 * coordination beyond the shared cache directory).
 *
 * Execution is resumable by construction: every finished simulation
 * is atomically published to the cache before the run counts it, so
 * killing a campaign at any point loses at most the in-flight cells,
 * and rerunning the same spec recomputes only what is missing.
 *
 * The building blocks are public: expandCampaignJobs() yields the
 * deterministic deduplicated job list and executeCampaignJob() runs a
 * single job, so callers that time or schedule cells one at a time
 * (perfbench) compose them directly instead of going through
 * run-to-completion runCampaign().
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/spec.hh"

namespace gaze
{

class BaselineCache;
class TraceStore;

/** One executable unit of a campaign: a baseline or a prefetcher cell. */
struct CampaignJob
{
    /** Progress text, e.g. "gaze x mcf (1c, l1)"; a spec with
        "systems" appends the system: "gaze x mcf (1c, l1, dram800)". */
    std::string label;
    std::string key;   ///< canonical cell text (cache identity)
    uint64_t hash = 0; ///< cellHash(key) — the cache address
    uint32_t cores = 1;
    bool isBaseline = false;
    WorkloadDef workload;
    PfSpec pf;
    RunConfig run; ///< the cell's system and phases
};

/**
 * The deterministic job order of @p campaign — baselines first (they
 * are the jobs every comparison needs), then cells in expansion order,
 * each hash at most once (a spec that lists the same workload or core
 * count twice expands to duplicate cells; running both would race on
 * one cache file). Shards derive their assignment from this
 * sequence, so the dedup happens here, before any partitioning.
 * runCampaign only assigns by this order: it submits its share to
 * the pool in interleavedJobOrder (workloads/trace_store.hh).
 */
std::vector<CampaignJob> expandCampaignJobs(const Campaign &campaign);

/**
 * Simulate one job to completion and return its cell record (the
 * caller publishes it to a ResultCache). Emits the per-cell host-time
 * span on the calling thread's track. Pass a shared @p baselines cache
 * to deduplicate baseline simulations across concurrent jobs, and a
 * @p traces store that planned this job to read its trace from the
 * store (the caller releases the job's workload afterwards).
 */
CellRecord executeCampaignJob(const CampaignJob &job,
                              const std::shared_ptr<BaselineCache>
                                  &baselines = nullptr,
                              TraceStore *traces = nullptr);

/** Execution knobs for one campaign run. */
struct CampaignRunOptions
{
    /** Round-robin shard this process executes (index < count). */
    uint32_t shardIndex = 0;
    uint32_t shardCount = 1;

    /** Worker threads; 0 = hardware concurrency. */
    uint32_t threads = 0;

    /** Per-job progress lines on stderr. */
    bool verbose = true;

    /**
     * Completion callback, invoked on the worker thread after each
     * executed job has been published to the cache (cache hits and
     * other shards' jobs do not call back). Must be thread safe.
     */
    std::function<void(const CampaignJob &, const CellRecord &)> onCell;
};

/** What one run did (the cache-hit accounting the tests assert on). */
struct CampaignRunStats
{
    uint64_t executed = 0;    ///< simulations actually run
    uint64_t cacheHits = 0;   ///< jobs served from the cache
    uint64_t otherShards = 0; ///< jobs left to sibling shards
    double seconds = 0.0;     ///< wall time of this run
    uint32_t threadsUsed = 0;

    uint64_t total() const { return executed + cacheHits + otherShards; }
};

/**
 * Execute the campaign's missing cells + baselines into @p cache.
 * Each generator-backed trace is generated at most once per call
 * (a TraceStore scoped to the call; see workloads/trace_store.hh),
 * lazily, so a run with nothing to execute generates nothing.
 * Fatal on invalid shard options; I/O failures inside workers are
 * fatal (a campaign with an unwritable cache cannot make progress).
 */
CampaignRunStats runCampaign(const Campaign &campaign,
                             ResultCache &cache,
                             const CampaignRunOptions &opt);

} // namespace gaze
