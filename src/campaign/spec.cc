#include "campaign/spec.hh"

#include <cctype>
#include <cmath>
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

/**
 * The prefetcher axis: spec strings and [L1, L2] pairs, each half
 * canonicalized through the registry. A pair is never spelled as one
 * string split on '+': canonical specs such as sms:scheme=pc+addr
 * contain one. Repeats of an entry collapse with a warning, the first
 * spelling keeping the axis position.
 */
std::vector<CampaignPrefetcher>
prefetcherAxis(const JsonValue &v)
{
    if (!v.isArray() || v.items().empty())
        GAZE_FATAL("campaign spec: \"prefetchers\" must be a non-empty "
                   "array of specs and [\"l1 spec\", \"l2 spec\"] pairs");
    std::vector<CampaignPrefetcher> out;
    for (const auto &item : v.items()) {
        CampaignPrefetcher p;
        std::string spelled;
        if (item.isString()) {
            spelled = item.asString();
            p.spec = canonicalPrefetcherSpec(spelled);
        } else if (item.isArray()) {
            const auto &half = item.items();
            if (half.size() != 2 || !half[0].isString()
                || !half[1].isString())
                GAZE_FATAL("campaign spec: a prefetcher pair must be a "
                           "two-string array [\"l1 spec\", \"l2 spec\"], "
                           "got ", half.size(), " element(s)");
            spelled = "[" + half[0].asString() + ", " + half[1].asString()
                      + "]";
            p.spec = canonicalPrefetcherSpec(half[0].asString());
            p.l2 = canonicalPrefetcherSpec(half[1].asString());
            if (p.spec == "none" || p.l2 == "none")
                GAZE_FATAL("campaign spec: prefetcher pair ", spelled,
                           " has a \"none\" half; list the other half "
                           "alone and pick its level with \"levels\"");
        } else {
            GAZE_FATAL("campaign spec: \"prefetchers\" must contain only "
                       "spec strings and [\"l1 spec\", \"l2 spec\"] "
                       "pairs");
        }
        bool repeat = false;
        for (const auto &q : out)
            repeat = repeat || (q.spec == p.spec && q.l2 == p.l2);
        if (repeat) {
            GAZE_WARN("campaign spec: prefetcher '", spelled,
                      "' duplicates canonical spec '", p.label(),
                      "'; keeping one");
            continue;
        }
        out.push_back(std::move(p));
    }
    return out;
}

/**
 * A cache size override: a count whose set count (at @p ways ways of
 * 64-byte blocks) is a whole power of two, the shape every Cache is
 * built with. Capped at 64 MiB so a typo cannot exhaust memory.
 */
uint64_t
cacheBytes(const JsonValue &v, const std::string &what, uint32_t ways)
{
    uint64_t bytes = v.asCount(what.c_str(), uint64_t(64) << 20);
    uint64_t line = uint64_t(ways) * blockSize;
    if (bytes == 0 || bytes % line != 0 || !isPowerOfTwo(bytes / line))
        GAZE_FATAL(what, " = ", bytes, " bytes is ", double(bytes) / line,
                   " sets of ", ways, " x ", blockSize,
                   "B; the set count must be a power of two");
    return bytes;
}

/** The "systems" axis: named overrides of Table II, in file order. */
std::vector<CampaignSystem>
systemAxis(const JsonValue &v)
{
    if (!v.isObject() || v.members().empty())
        GAZE_FATAL("campaign spec: \"systems\" must be a non-empty "
                   "object of named system overrides");
    std::vector<CampaignSystem> out;
    std::set<std::string> names;
    for (const auto &[name, overrides] : v.members()) {
        bool plain = !name.empty();
        for (char ch : name)
            plain = plain && (std::isalnum(static_cast<unsigned char>(ch))
                              || ch == '_' || ch == '-' || ch == '.');
        if (!plain)
            GAZE_FATAL("campaign spec: system name \"", name,
                       "\" must be non-empty [A-Za-z0-9_.-]");
        if (!names.insert(name).second)
            GAZE_FATAL("campaign spec: duplicate system \"", name, "\"");
        if (!overrides.isObject())
            GAZE_FATAL("campaign spec: system \"", name,
                       "\" must be an object of overrides");

        CampaignSystem sys;
        sys.name = name;
        std::set<std::string> seen;
        for (const auto &[key, val] : overrides.members()) {
            const std::string what =
                "campaign spec: system \"" + name + "\": \"" + key + "\"";
            if (!seen.insert(key).second)
                GAZE_FATAL(what, " is repeated");
            if (key == "dram_mtps") {
                double mtps = val.isNumber() ? val.asNumber() : NAN;
                if (!std::isfinite(mtps) || mtps < 100 || mtps > 102400)
                    GAZE_FATAL(what, " must be a number of MT/s in "
                               "100..102400");
                sys.system.dram.mtps = mtps;
            } else if (key == "llc_bytes_per_core") {
                sys.system.llcBytesPerCore =
                    cacheBytes(val, what, sys.system.llcWays);
            } else if (key == "l2_bytes") {
                sys.system.l2Bytes = cacheBytes(val, what, sys.system.l2Ways);
            } else {
                GAZE_FATAL("campaign spec: system \"", name,
                           "\": unknown key \"", key, "\" (known: "
                           "dram_mtps, llc_bytes_per_core, l2_bytes)");
            }
        }
        out.push_back(std::move(sys));
    }
    return out;
}

} // namespace

PfSpec
CampaignPrefetcher::at(const std::string &level) const
{
    return isPair() ? PfSpec{spec, l2} : pfSpecAt(spec, level);
}

std::string
CampaignPrefetcher::label() const
{
    return isPair() ? PfSpec{spec, l2}.label() : spec;
}

CampaignSpec
parseCampaignSpec(const JsonValue &root)
{
    if (!root.isObject())
        GAZE_FATAL("campaign spec: document must be a JSON object");

    CampaignSpec spec;
    const JsonValue *pfAxis = nullptr;
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
            pfAxis = &v;
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
        } else if (key == "systems") {
            spec.systems = systemAxis(v);
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
    if (!pfAxis)
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
    spec.prefetchers = prefetcherAxis(*pfAxis);
    for (const auto &level : spec.levels)
        pfSpecAt("none", level);
    for (const auto &p : spec.prefetchers)
        if (p.isPair() && spec.levels != std::vector<std::string>{"l1"})
            GAZE_FATAL("campaign spec: prefetcher pair \"", p.label(),
                       "\" attaches at L1 and L2 itself; it needs "
                       "\"levels\": [\"l1\"]");
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

    // Deterministic cell order: system, level, cores, prefetcher,
    // workload. The baseline of a cell depends only on (system, cores,
    // workload), so the level and prefetcher axes all share it; first
    // appearance wins. Systems with equal configs share cell hashes,
    // which the job list runs once.
    std::vector<CampaignSystem> systems = spec.systems;
    if (systems.empty())
        systems.push_back({"default", spec.run.system});
    std::set<uint64_t> baselineSeen;
    for (const auto &sys : systems) {
        RunConfig run = spec.run;
        run.system = sys.system;
        for (const auto &level : spec.levels) {
            for (uint32_t cores : spec.coreCounts) {
                for (const auto &entry : spec.prefetchers) {
                    for (const auto &w : c.workloads) {
                        CampaignCell cell;
                        cell.prefetcher = entry.label();
                        cell.level = level;
                        cell.cores = cores;
                        cell.system = sys.name;
                        cell.workload = w;
                        cell.pf = entry.at(level);
                        cell.run = run;

                        std::vector<WorkloadDef> mix(cores, w);
                        cell.key = canonicalCellText(run, cell.pf, mix);
                        cell.hash = cellHash(cell.key);

                        cell.baselineKey =
                            canonicalCellText(run, PfSpec{}, mix);
                        cell.baselineHash = cellHash(cell.baselineKey);
                        if (baselineSeen.insert(cell.baselineHash).second) {
                            CampaignBaseline b;
                            b.cores = cores;
                            b.system = sys.name;
                            b.workload = w;
                            b.run = run;
                            b.key = cell.baselineKey;
                            b.hash = cell.baselineHash;
                            c.baselines.push_back(std::move(b));
                        }
                        c.cells.push_back(std::move(cell));
                    }
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
