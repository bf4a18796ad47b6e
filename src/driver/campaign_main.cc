/**
 * @file
 * gaze_campaign: declarative experiment campaigns over the content-
 * addressed result cache. "run" simulates whatever the cache is
 * missing (optionally one shard of it) and, when unsharded,
 * aggregates the report; "report" aggregates from the cache alone;
 * "status" shows cache coverage. Flag parsing lives in driver/cli,
 * everything else in src/campaign.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "campaign/engine.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "common/log.hh"
#include "driver/cli.hh"
#include "harness/export.hh"
#include "obs/trace.hh"
#include "prefetchers/registry.hh"

namespace
{

using namespace gaze;

/** Aggregate + write the JSON (and optional CSV) report. */
void
emitReport(const Campaign &campaign, const ResultCache &cache,
           const GazeCampaignOptions &opt)
{
    JsonValue previous;
    bool have_previous = false;
    if (!opt.comparePath.empty()) {
        previous = parseJsonFile(opt.comparePath);
        have_previous = true;
    }

    CampaignReport report =
        buildReport(campaign, cache, have_previous ? &previous : nullptr);

    std::printf("\n%s\n", reportTable(report.suites).c_str());

    JsonExport doc(campaign.spec.name, report.json);
    std::string path =
        opt.outPath.empty() ? doc.write() : doc.writeTo(opt.outPath);
    std::printf("report: %s\n", path.c_str());
    if (!opt.csvPath.empty()) {
        writeTextFile(opt.csvPath, report.csv);
        std::printf("csv: %s\n", opt.csvPath.c_str());
    }
}

int
cmdRun(const GazeCampaignOptions &opt)
{
    Campaign campaign = loadCampaign(opt.specPath);
    ResultCache cache(opt.cacheDir);

    // --obs-trace: host-time spans of the run (cell jobs, shard,
    // baseline waits) via the process-global hook the engine checks.
    std::unique_ptr<obs::TraceSink> traceSink;
    if (!opt.obsTracePath.empty()) {
        traceSink = std::make_unique<obs::TraceSink>();
        obs::setGlobalTrace(traceSink.get());
    }

    CampaignRunOptions run_opt;
    run_opt.shardIndex = opt.shardIndex;
    run_opt.shardCount = opt.shardCount;
    run_opt.threads = opt.threads;
    run_opt.verbose = !opt.quiet;

    std::printf("gaze_campaign: %s: %zu cell(s) + %zu baseline(s), "
                "cache %s%s\n",
                campaign.spec.name.c_str(), campaign.cells.size(),
                campaign.baselines.size(), opt.cacheDir.c_str(),
                opt.shardCount > 1 ? ", sharded" : "");

    CampaignRunStats stats = runCampaign(campaign, cache, run_opt);
    if (traceSink) {
        obs::setGlobalTrace(nullptr);
        traceSink->writeTo(opt.obsTracePath);
        std::printf("obs trace: %s\n", opt.obsTracePath.c_str());
    }
    std::printf("executed %llu simulation(s), %llu cache hit(s)"
                ", %llu left to other shards (%.1fs on %u thread(s))\n",
                static_cast<unsigned long long>(stats.executed),
                static_cast<unsigned long long>(stats.cacheHits),
                static_cast<unsigned long long>(stats.otherShards),
                stats.seconds, stats.threadsUsed);

    if (opt.shardCount > 1) {
        std::printf("shard %u/%u done; aggregate with: gaze_campaign "
                    "report --spec=%s --cache-dir=%s\n",
                    opt.shardIndex, opt.shardCount,
                    opt.specPath.c_str(), opt.cacheDir.c_str());
        return 0;
    }
    emitReport(campaign, cache, opt);
    return 0;
}

int
cmdReport(const GazeCampaignOptions &opt)
{
    Campaign campaign = loadCampaign(opt.specPath);
    ResultCache cache(opt.cacheDir);
    emitReport(campaign, cache, opt);
    return 0;
}

int
cmdStatus(const GazeCampaignOptions &opt)
{
    Campaign campaign = loadCampaign(opt.specPath);
    ResultCache cache(opt.cacheDir);
    CampaignCacheStatus status = campaignStatus(campaign, cache);
    if (opt.jsonOutput) {
        // One machine-readable line; the exit code still says
        // whether cells are missing.
        std::printf("%s\n",
                    campaignStatusJson(campaign, cache).c_str());
        return status.missing ? 2 : 0;
    }
    std::printf("%s: %llu cached, %llu missing (cache %s)\n",
                campaign.spec.name.c_str(),
                static_cast<unsigned long long>(status.cached),
                static_cast<unsigned long long>(status.missing),
                opt.cacheDir.c_str());
    return status.missing ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    GazeCampaignOptions opt = parseGazeCampaignArgs(
        std::vector<std::string>(argv + 1, argv + argc));

    switch (opt.command) {
      case GazeCampaignOptions::Command::Run:
        return cmdRun(opt);
      case GazeCampaignOptions::Command::Report:
        return cmdReport(opt);
      case GazeCampaignOptions::Command::Status:
        return cmdStatus(opt);
      case GazeCampaignOptions::Command::Describe:
        std::fputs(renderPrefetcherList(opt.jsonOutput).c_str(),
                   stdout);
        return 0;
      case GazeCampaignOptions::Command::Help:
        std::fputs(gazeCampaignUsage(), stdout);
        return 0;
    }
    return 0;
}
