#include "campaign/spec.hh"

#include <set>

#include "common/log.hh"
#include "harness/cell_key.hh"
#include "prefetchers/registry.hh"

namespace gaze
{
namespace
{

std::vector<std::string>
stringArray(const JsonValue &v, const char *what)
{
    if (!v.isArray())
        GAZE_FATAL("campaign spec: \"", what,
                   "\" must be an array of strings");
    std::vector<std::string> out;
    for (const auto &item : v.items()) {
        if (!item.isString())
            GAZE_FATAL("campaign spec: \"", what,
                       "\" must contain only strings");
        out.push_back(item.asString());
    }
    if (out.empty())
        GAZE_FATAL("campaign spec: \"", what, "\" must not be empty");
    return out;
}

} // namespace

CampaignSpec
parseCampaignSpec(const JsonValue &root)
{
    if (!root.isObject())
        GAZE_FATAL("campaign spec: document must be a JSON object");

    CampaignSpec spec;
    std::set<std::string> seen;
    for (const auto &member : root.members()) {
        const std::string &key = member.first;
        const JsonValue &v = member.second;
        // A repeated key would let the last one silently replace an
        // axis the reader of the file sees.
        if (!seen.insert(key).second)
            GAZE_FATAL("campaign spec: duplicate key \"", key, "\"");
        if (key == "name") {
            if (!v.isString() || v.asString().empty())
                GAZE_FATAL("campaign spec: \"name\" must be a "
                           "non-empty string");
            spec.name = v.asString();
        } else if (key == "prefetchers") {
            spec.prefetchers = stringArray(v, "prefetchers");
        } else if (key == "suites") {
            spec.suites = stringArray(v, "suites");
        } else if (key == "workloads") {
            spec.workloadNames = stringArray(v, "workloads");
        } else if (key == "levels") {
            spec.levels = stringArray(v, "levels");
        } else if (key == "cores") {
            if (!v.isArray() || v.items().empty())
                GAZE_FATAL("campaign spec: \"cores\" must be a "
                           "non-empty array of core counts");
            spec.coreCounts.clear();
            for (const auto &item : v.items())
                spec.coreCounts.push_back(checkedCoreCount(
                    item.asCount("campaign spec: cores entry")));
        } else if (key == "warmup") {
            spec.run.warmupInstr =
                v.asCount("campaign spec: warmup");
        } else if (key == "sim") {
            spec.run.simInstr = v.asCount("campaign spec: sim");
        } else if (key == "trace_dir") {
            if (!v.isString() || v.asString().empty())
                GAZE_FATAL("campaign spec: \"trace_dir\" must be a "
                           "non-empty string");
            spec.traceDir = v.asString();
        } else {
            GAZE_FATAL("campaign spec: unknown key \"", key,
                       "\" (typo?)");
        }
    }

    if (spec.name.empty())
        GAZE_FATAL("campaign spec: missing required \"name\"");
    if (spec.prefetchers.empty())
        GAZE_FATAL("campaign spec: missing required \"prefetchers\"");

    // Resolve every axis entry against its registry now, so a typo
    // dies with a clear message before any simulation or cache I/O —
    // including suites that "workloads" overrides and would otherwise
    // be silently ignored.
    //
    // The prefetcher axis is also canonicalized (aliases resolved,
    // options sorted, defaults elided): equivalent spellings collapse
    // to one axis entry, one set of cells and one cache address, and
    // the report labels are spelling-invariant. First spelling wins
    // the axis position.
    spec.prefetchers =
        canonicalizeSpecList(spec.prefetchers, "campaign spec");
    for (const auto &level : spec.levels)
        pfSpecAt("none", level);
    for (const auto &w : spec.workloadNames)
        findWorkload(w);
    for (const auto &s : spec.suites)
        suiteWorkloads(s);
    return spec;
}

Campaign
expandCampaign(const CampaignSpec &spec)
{
    Campaign c;
    c.spec = spec;

    if (!spec.workloadNames.empty()) {
        for (const auto &n : spec.workloadNames)
            c.workloads.push_back(findWorkload(n));
    } else {
        std::vector<std::string> suites = spec.suites;
        if (suites.empty())
            suites = mainSuites();
        for (const auto &s : suites)
            for (const auto &w : suiteWorkloads(s))
                c.workloads.push_back(w);
    }
    if (!spec.traceDir.empty())
        c.workloads = withTraceDir(std::move(c.workloads),
                                   spec.traceDir);

    // Deterministic cell order: level, cores, prefetcher, workload.
    // The baseline of a cell depends only on (cores, workload), so the
    // level and prefetcher axes all share it; first appearance wins.
    std::set<uint64_t> baselineSeen;
    for (const auto &level : spec.levels) {
        for (uint32_t cores : spec.coreCounts) {
            for (const auto &pf_name : spec.prefetchers) {
                for (const auto &w : c.workloads) {
                    CampaignCell cell;
                    cell.prefetcher = pf_name;
                    cell.level = level;
                    cell.cores = cores;
                    cell.workload = w;
                    cell.pf = pfSpecAt(pf_name, level);

                    std::vector<WorkloadDef> mix(cores, w);
                    cell.key =
                        canonicalCellText(spec.run, cell.pf, mix);
                    cell.hash = cellHash(cell.key);

                    cell.baselineKey =
                        canonicalCellText(spec.run, PfSpec{}, mix);
                    cell.baselineHash = cellHash(cell.baselineKey);
                    if (baselineSeen.insert(cell.baselineHash).second) {
                        CampaignBaseline b;
                        b.cores = cores;
                        b.workload = w;
                        b.key = cell.baselineKey;
                        b.hash = cell.baselineHash;
                        c.baselines.push_back(std::move(b));
                    }
                    c.cells.push_back(std::move(cell));
                }
            }
        }
    }
    GAZE_ASSERT(!c.cells.empty(), "campaign expanded to zero cells");
    return c;
}

Campaign
loadCampaign(const std::string &path)
{
    return expandCampaign(parseCampaignSpec(parseJsonFile(path)));
}

} // namespace gaze
