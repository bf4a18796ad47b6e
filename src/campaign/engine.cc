#include "campaign/engine.hh"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <set>

#include "common/log.hh"
#include "driver/thread_pool.hh"
#include "harness/runner.hh"
#include "harness/wallclock.hh"
#include "obs/trace.hh"
#include "workloads/trace_store.hh"

namespace gaze
{

std::vector<CampaignJob>
expandCampaignJobs(const Campaign &campaign)
{
    // Without "systems" every cell is on the one default system, which
    // the labels leave unnamed.
    const bool named = !campaign.spec.systems.empty();
    auto suffix = [named](const std::string &system) {
        return named ? ", " + system + ")" : std::string(")");
    };
    std::set<uint64_t> queued;
    std::vector<CampaignJob> jobs;
    jobs.reserve(campaign.baselines.size() + campaign.cells.size());
    for (const auto &b : campaign.baselines) {
        CampaignJob job;
        job.label = "baseline x " + b.workload.name + " ("
                    + std::to_string(b.cores) + "c" + suffix(b.system);
        job.key = b.key;
        job.hash = b.hash;
        job.cores = b.cores;
        job.isBaseline = true;
        job.workload = b.workload;
        job.run = b.run;
        queued.insert(b.hash);
        jobs.push_back(std::move(job));
    }
    for (const auto &cell : campaign.cells) {
        if (!queued.insert(cell.hash).second)
            continue;
        CampaignJob job;
        job.label = cell.pf.label() + " x " + cell.workload.name + " ("
                    + std::to_string(cell.cores) + "c, " + cell.level
                    + suffix(cell.system);
        job.key = cell.key;
        job.hash = cell.hash;
        job.cores = cell.cores;
        job.workload = cell.workload;
        job.pf = cell.pf;
        job.run = cell.run;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

CellRecord
executeCampaignJob(const CampaignJob &job,
                   const std::shared_ptr<BaselineCache> &baselines,
                   TraceStore *traces)
{
    obs::HostSpan cellSpan(obs::globalTrace(), "cell " + job.label);
    WallTimer cellTimer;
    Runner runner(job.run, baselines, traces);
    std::vector<WorkloadDef> mix(job.cores, job.workload);
    RunResult r = runner.runMix(mix, job.pf);

    CellRecord rec;
    rec.key = job.key;
    rec.summary = summarize(r);
    rec.seconds = cellTimer.seconds();
    return rec;
}

CampaignRunStats
runCampaign(const Campaign &campaign, ResultCache &cache,
            const CampaignRunOptions &opt)
{
    GAZE_ASSERT(opt.shardCount >= 1, "shard count must be >= 1");
    if (opt.shardIndex >= opt.shardCount)
        GAZE_FATAL("shard index ", opt.shardIndex,
                   " out of range (", opt.shardCount, " shards)");

    WallTimer campaignTimer;

    // Deterministic deduplicated job order (see expandCampaignJobs):
    // shards partition this sequence round-robin, so every process
    // derives the identical assignment from the spec alone.
    std::vector<CampaignJob> jobs = expandCampaignJobs(campaign);

    CampaignRunStats stats;
    std::vector<const CampaignJob *> toRun;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (uint64_t(i) % opt.shardCount != opt.shardIndex) {
            ++stats.otherShards;
            continue;
        }
        CellRecord cached;
        std::string why;
        if (cache.lookup(jobs[i].hash, jobs[i].key, &cached, &why)) {
            ++stats.cacheHits;
            continue;
        }
        if (!why.empty())
            GAZE_WARN(why);
        toRun.push_back(&jobs[i]);
    }

    std::atomic<uint64_t> executed{0};
    std::mutex progressMtx;
    size_t announced = 0;
    auto progress = [&](const CampaignJob &job, double secs) {
        if (!opt.verbose)
            return;
        std::unique_lock<std::mutex> lock(progressMtx);
        ++announced;
        std::fprintf(stderr, "[%zu/%zu] %s (%.1fs)\n", announced,
                     toRun.size(), job.label.c_str(), secs);
    };

    stats.threadsUsed = resolvePoolThreads(opt.threads, toRun.size());
    if (!toRun.empty()) {
        // Each trace is generated once for this run and shared by its
        // jobs. Only the submission order changes (shards were
        // assigned above): interleaving bounds the live buffers.
        std::vector<const WorkloadDef *> planned;
        for (const CampaignJob *job : toRun)
            planned.push_back(&job->workload);
        TraceStore traces(planned);

        // Host-time tracing (--obs-trace): one span for the whole
        // shard, one per cell job on its worker thread's track.
        obs::HostSpan shardSpan(obs::globalTrace(), "campaign shard");
        ThreadPool pool(stats.threadsUsed);
        for (size_t i : interleavedJobOrder(planned, stats.threadsUsed)) {
            const CampaignJob *job = toRun[i];
            pool.submit([&, job] {
                CellRecord rec = executeCampaignJob(*job, nullptr, &traces);
                traces.release(job->workload);
                cache.store(job->hash, rec);
                executed.fetch_add(1, std::memory_order_relaxed);
                progress(*job, rec.seconds);
                if (opt.onCell)
                    opt.onCell(*job, rec);
            });
        }
        pool.wait();
    }
    stats.executed = executed.load();

    stats.seconds = campaignTimer.seconds();
    return stats;
}

} // namespace gaze
