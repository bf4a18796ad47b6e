/**
 * @file
 * Campaign aggregation: merge the cached cells of a campaign into one
 * BENCH-style JSON document plus a per-suite CSV, computing the
 * paper's metrics (speedup/accuracy/coverage/late fraction, suite
 * geomeans) from cached RunSummaries only — never from in-memory run
 * state — so the report is a pure function of the cache content and
 * therefore bitwise identical across reruns, shard layouts, and
 * processes. No wall-clock or host data appears in the report.
 *
 * When a previous report is supplied (--compare), a "compare" section
 * is appended with per-suite speedup deltas against it.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/json.hh"
#include "campaign/spec.hh"
#include "harness/runner.hh"

namespace gaze
{

/** One (system, level, cores, prefetcher, suite) aggregate row. */
struct CampaignSuiteRow
{
    std::string system;
    std::string prefetcher;
    std::string level;
    uint32_t cores = 1;
    std::string suite;
    uint32_t workloads = 0;
    SuiteSummary summary;
};

/** The rendered aggregate outputs. */
struct CampaignReport
{
    std::string json;                     ///< BENCH document text
    std::string csv;                      ///< per-suite CSV text
    std::vector<CampaignSuiteRow> suites; ///< for the stdout table
};

/**
 * Aggregate every cell of @p campaign from @p cache. Fatal when any
 * cell or baseline is missing (naming it and how many more are
 * absent) — an aggregate over a partial cache would silently lie.
 * @p previous is a parsed earlier report document, or nullptr.
 */
CampaignReport buildReport(const Campaign &campaign,
                           const ResultCache &cache,
                           const JsonValue *previous);

/** Render the suite rows as an aligned text table for stdout. */
std::string reportTable(const std::vector<CampaignSuiteRow> &rows);

/**
 * `gaze_campaign describe --spec`: each prefetcher-axis entry of
 * @p spec with its canonical spec and its storage from a live
 * storageBits() call (a pair sums its two halves), plus Gaze's
 * Table I breakdown for every distinct Gaze spec among them. A text
 * table, or one JSON document when @p json. Builds every scheme
 * (milliseconds for the large-PHT ones), which is why buildReport
 * never does this.
 */
std::string describeCampaignStorage(const CampaignSpec &spec, bool json);

/** Cache coverage of a campaign without simulating anything. */
struct CampaignCacheStatus
{
    uint64_t cached = 0;
    uint64_t missing = 0;
};

CampaignCacheStatus campaignStatus(const Campaign &campaign,
                                   const ResultCache &cache);

/**
 * The one-line document for `gaze_campaign status --json`: campaign
 * name, cell-record schema version, total/cached/missing job counts
 * and the cache directory.
 */
std::string campaignStatusJson(const Campaign &campaign,
                               const ResultCache &cache);

} // namespace gaze
