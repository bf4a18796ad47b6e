/**
 * @file
 * Declarative experiment campaigns: a JSON spec file names the
 * prefetcher axis, the workload axis (explicit names or whole
 * suites), the attach levels and core counts to sweep, and the phase
 * lengths; expansion turns it into a deterministic list of cells —
 * one (config, prefetcher, workload) simulation each — plus the
 * deduplicated no-prefetch baseline jobs those cells are scored
 * against. Every cell carries its canonical text and FNV-1a hash
 * (harness/cell_key), which is the address of its cached result.
 *
 * Spec format (all axes validated against the driver registries,
 * unknown keys fatal; the prefetcher axis is canonicalized by the
 * prefetcher registry on load, so equivalent spellings collapse to
 * one axis entry and the cells/report labels are spelling-invariant):
 *
 *   {
 *     "name": "fig06_main",            // required, experiment id
 *     "prefetchers": ["gaze", ...],    // required, factory specs, or
 *                                      // ["l1 spec", "l2 spec"] pairs
 *     "suites": ["spec06", ...],       // default: the five main suites
 *     "workloads": ["mcf", ...],       // overrides "suites"
 *     "levels": ["l1"],                // default ["l1"]; "l1"/"l2"
 *     "cores": [1, 4],                 // default [1]
 *     "systems": {"dram800": {"dram_mtps": 800}, ...},
 *                                      // optional named overrides of
 *                                      // dram_mtps, llc_bytes_per_core
 *                                      // and l2_bytes
 *     "warmup": 200000,                // optional; 0 = scale default
 *     "sim": 400000,                   // optional; 0 = scale default
 *     "trace_dir": "traces"            // optional .gzt replay dir
 *   }
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/json.hh"
#include "harness/runner.hh"
#include "workloads/suites.hh"

namespace gaze
{

/**
 * One entry of the prefetcher axis: a canonical spec, attached at
 * each of the spec's levels, or an L1 + L2 pair (which fixes its own
 * levels, so it is only valid with "levels": ["l1"]).
 */
struct CampaignPrefetcher
{
    std::string spec; ///< canonical spec; the L1 half of a pair
    std::string l2;   ///< canonical L2 half of a pair; empty otherwise

    bool isPair() const { return !l2.empty(); }

    /** The PfSpec of this entry's cells at @p level. */
    PfSpec at(const std::string &level) const;

    /** Report label: the spec, or PfSpec::label() of a pair. */
    std::string label() const;
};

/** One named system of the "systems" axis. */
struct CampaignSystem
{
    std::string name;
    SystemConfig system; ///< Table II with the overrides applied
};

/** The parsed, validated campaign spec file. */
struct CampaignSpec
{
    std::string name;
    std::vector<CampaignPrefetcher> prefetchers;
    std::vector<std::string> suites;        ///< used when workloadNames empty
    std::vector<std::string> workloadNames; ///< explicit workload axis
    std::vector<std::string> levels = {"l1"};
    std::vector<uint32_t> coreCounts = {1};
    RunConfig run;
    /** Empty when the spec has no "systems": one system, Table II. */
    std::vector<CampaignSystem> systems;
    std::string traceDir;
};

/** One expanded simulation cell (with a prefetcher attached). */
struct CampaignCell
{
    std::string prefetcher; ///< the axis entry's label()
    std::string level;
    uint32_t cores = 1;
    std::string system; ///< system name ("default" without "systems")
    WorkloadDef workload;
    PfSpec pf;
    RunConfig run; ///< the spec's phases on this cell's system

    std::string key; ///< canonical cell text
    uint64_t hash = 0;

    /** The no-prefetch baseline cell this one is scored against. */
    std::string baselineKey;
    uint64_t baselineHash = 0;
};

/** One deduplicated no-prefetch baseline job. */
struct CampaignBaseline
{
    uint32_t cores = 1;
    std::string system;
    WorkloadDef workload;
    RunConfig run;
    std::string key;
    uint64_t hash = 0;
};

/** A fully expanded campaign: what the engine executes and caches. */
struct Campaign
{
    CampaignSpec spec;
    std::vector<WorkloadDef> workloads; ///< the resolved workload axis
    /** System, level, cores, pf, workload order: each run of
        workloads.size() cells shares one (system, level, cores, pf). */
    std::vector<CampaignCell> cells;
    std::vector<CampaignBaseline> baselines; ///< first-appearance order
};

/**
 * Validate a parsed spec document against the registries. Fatal on
 * missing/unknown keys, unknown prefetchers/suites/workloads/levels,
 * a pair used with levels other than ["l1"], or malformed values
 * (including system sizes whose set count is not a power of two) — a
 * campaign must never silently drop an axis.
 */
CampaignSpec parseCampaignSpec(const JsonValue &root);

/**
 * Expand the axes into cells and deduplicated baselines, resolving
 * trace_dir replay and computing every cache key. Deterministic: the
 * same spec (and scale) always yields the same cells in the same
 * order, which sharded execution relies on.
 */
Campaign expandCampaign(const CampaignSpec &spec);

/** Load + parse + expand a spec file (fatal on any problem). */
Campaign loadCampaign(const std::string &path);

} // namespace gaze
