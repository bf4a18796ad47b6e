/**
 * @file
 * Flag parsing for the three CLIs (gaze_sim, gaze_trace and
 * gaze_campaign), factored out of the main()s so the error paths —
 * unknown flags, bad suite/workload/prefetcher names, malformed
 * --trace-dir or --shard, junk numbers — are unit-testable. Parsers
 * resolve names against the registries eagerly: anything wrong in
 * argv is fatal here, before a single cycle is simulated.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/driver.hh"
#include "workloads/suites.hh"

namespace gaze
{

/** Parsed gaze_sim command line. */
struct GazeSimOptions
{
    /** --list-prefetchers[=json]: registry introspection mode. */
    enum class ListPrefetchers
    {
        No,   ///< flag absent
        Text, ///< human-readable scheme/option table
        Json  ///< one machine-readable JSON document
    };

    MatrixSpec spec;
    std::string outPath;    ///< --out; empty = default BENCH path
    bool showHelp = false;  ///< --help: print usage, run nothing
    bool showList = false;  ///< --list: print registries, run nothing

    /** --engine-stats: print per-cell simulation speed after the run. */
    bool engineStats = false;

    /** Render the prefetcher registry, run nothing. */
    ListPrefetchers listPrefetchers = ListPrefetchers::No;
};

/**
 * Parse gaze_sim flags (argv without the program name). Expands
 * --suites/--workloads into WorkloadDefs, rebinds them to recorded
 * traces when --trace-dir is given, and canonicalizes every
 * prefetcher spec against the registry (equivalent spellings collapse
 * to one matrix row). Fatal on any malformed or unknown argument.
 */
GazeSimOptions parseGazeSimArgs(const std::vector<std::string> &args);

/** gaze_sim usage text. */
const char *gazeSimUsage();

/** Parsed gaze_trace command line. */
struct GazeTraceOptions
{
    enum class Command
    {
        Record,   ///< generate workloads and persist them as .gzt
        Info,     ///< print header/provenance of .gzt files
        Validate, ///< full decode + checksum verification
        Help
    };

    Command command = Command::Help;
    std::vector<WorkloadDef> workloads; ///< record: what to record
    std::string outDir = ".";           ///< record: --out-dir
    std::vector<std::string> files;     ///< info/validate operands
    bool jsonOutput = false;            ///< info: --json
};

/**
 * Parse gaze_trace arguments: "record [--suites=|--workloads=]
 * [--out-dir=]", "info FILE...", "validate FILE...". Fatal on unknown
 * commands/flags, unresolvable workload names, or missing operands.
 */
GazeTraceOptions parseGazeTraceArgs(const std::vector<std::string> &args);

/** gaze_trace usage text. */
const char *gazeTraceUsage();

/** Parsed gaze_campaign command line. */
struct GazeCampaignOptions
{
    enum class Command
    {
        Run,      ///< execute missing cells, then aggregate (unsharded)
        Report,   ///< aggregate from cache only
        Status,   ///< count cached vs missing cells
        Describe, ///< the registry, or a spec's prefetcher storage
        Help
    };

    Command command = Command::Help;
    std::string specPath;                  ///< --spec (optional for describe)
    std::string cacheDir = "campaign_cache"; ///< --cache-dir
    uint32_t shardIndex = 0;               ///< --shard=i/n
    uint32_t shardCount = 1;
    uint32_t threads = 0;                  ///< --threads
    std::string outPath;                   ///< --out (report JSON)
    std::string csvPath;                   ///< --csv (suite CSV)
    std::string comparePath;               ///< --compare (old report)
    std::string obsTracePath;              ///< run: --obs-trace
    bool quiet = false;                    ///< --quiet
    bool jsonOutput = false;               ///< describe/status: --json
};

/**
 * Parse gaze_campaign arguments: "run|report|status --spec=FILE
 * [--cache-dir=] [--shard=i/n] [--threads=] [--out=] [--csv=]
 * [--compare=] [--quiet]" or "describe [--spec=FILE] [--json]". Validates flag
 * syntax only — the spec file itself is loaded (and validated) by the
 * campaign library. Fatal on unknown commands/flags, a missing --spec
 * for the spec-driven commands, or a malformed --shard.
 */
GazeCampaignOptions
parseGazeCampaignArgs(const std::vector<std::string> &args);

/** gaze_campaign usage text. */
const char *gazeCampaignUsage();

/** Split "a,b,c" into tokens, dropping empties. */
std::vector<std::string> splitList(const std::string &s);

/**
 * Strict decimal parse for flag values: digits only, within
 * [0, @p max]. Fatal otherwise, naming @p flag.
 */
uint64_t parseCount(const std::string &flag, const std::string &value,
                    uint64_t max = UINT64_MAX);

} // namespace gaze
