#include "campaign/report.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <tuple>

#include "common/log.hh"
#include "core/gaze.hh"
#include "harness/cell_key.hh"
#include "harness/export.hh"
#include "harness/table.hh"
#include "prefetchers/registry.hh"

namespace gaze
{
namespace
{

/** Fixed-precision CSV number (locale-independent). */
std::string
csvNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

/**
 * Round @p v through the JsonWriter's %.10g rendering. Values read
 * back from a previous report went through that rounding once, so
 * deltas are computed at matching precision — identical results give
 * an exact 0.0 delta, not rounding noise.
 */
double
jsonRounded(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::strtod(buf, nullptr);
}

/** Identity of one suite row for --compare matching. */
using RowKey = std::tuple<std::string, std::string, std::string, uint32_t,
                          std::string>; // system, pf, level, cores, suite

/**
 * Pull the per-suite speedups out of a previous report document.
 * Fatal when the document has no usable "suites" array — comparing
 * against a non-report file is a user error worth naming.
 */
std::map<RowKey, double>
previousSuiteSpeedups(const JsonValue &previous)
{
    if (!previous.isObject())
        GAZE_FATAL("--compare file is not a report document "
                   "(not a JSON object)");
    const JsonValue *suites = previous.find("suites");
    if (!suites || !suites->isArray())
        GAZE_FATAL("--compare file has no \"suites\" array (not a "
                   "gaze_campaign report?)");

    std::map<RowKey, double> out;
    for (const auto &row : suites->items()) {
        if (!row.isObject())
            continue;
        const JsonValue *system = row.find("system");
        const JsonValue *pf = row.find("prefetcher");
        const JsonValue *level = row.find("level");
        const JsonValue *cores = row.find("cores");
        const JsonValue *suite = row.find("suite");
        const JsonValue *speedup = row.find("speedup");
        if (!pf || !pf->isString() || !suite || !suite->isString()
            || !speedup || !speedup->isNumber())
            continue;
        // Older gaze_sim documents carry no level/cores per row, and
        // older reports no system; let them match single-level
        // single-core default-system campaigns. A cores
        // value outside [0, 2^32) is not something we ever wrote —
        // skip the row rather than cast out of range (UB).
        std::string system_s =
            system && system->isString() ? system->asString() : "default";
        std::string level_s =
            level && level->isString() ? level->asString() : "l1";
        uint32_t cores_n = 1;
        if (cores) {
            if (!cores->isNumber())
                continue;
            double n = cores->asNumber();
            if (!(n >= 0) || n > 4294967295.0)
                continue;
            cores_n = static_cast<uint32_t>(n);
        }
        out[{system_s, pf->asString(), level_s, cores_n,
             suite->asString()}] = speedup->asNumber();
    }
    return out;
}

} // namespace

CampaignReport
buildReport(const Campaign &campaign, const ResultCache &cache,
            const JsonValue *previous)
{
    // Load every record first so a partial cache fails fast, naming
    // the first missing cell and the total shortfall.
    std::map<uint64_t, CellRecord> baselineRecords;
    uint64_t missing = 0;
    std::string first_missing;
    for (const auto &b : campaign.baselines) {
        CellRecord rec;
        if (cache.lookup(b.hash, b.key, &rec)) {
            baselineRecords.emplace(b.hash, std::move(rec));
        } else {
            ++missing;
            if (first_missing.empty())
                first_missing = "baseline x " + b.workload.name;
        }
    }
    std::vector<CellRecord> cellRecords(campaign.cells.size());
    std::vector<PrefetchMetrics> metrics(campaign.cells.size());
    for (size_t i = 0; i < campaign.cells.size(); ++i) {
        const CampaignCell &cell = campaign.cells[i];
        if (!cache.lookup(cell.hash, cell.key, &cellRecords[i])) {
            ++missing;
            if (first_missing.empty())
                first_missing =
                    cell.pf.label() + " x " + cell.workload.name;
        }
    }
    if (missing)
        GAZE_FATAL("cannot aggregate: ", missing,
                   " cell(s) not in cache '", cache.directory(),
                   "' (first: ", first_missing,
                   ") — run the campaign (all shards) first");

    for (size_t i = 0; i < campaign.cells.size(); ++i) {
        const auto &base =
            baselineRecords.at(campaign.cells[i].baselineHash);
        metrics[i] =
            computeMetrics(base.summary, cellRecords[i].summary);
    }

    // Suite order: first appearance across the workload axis.
    std::vector<std::string> suiteOrder;
    for (const auto &w : campaign.workloads)
        if (std::find(suiteOrder.begin(), suiteOrder.end(), w.suite)
            == suiteOrder.end())
            suiteOrder.push_back(w.suite);

    // Cells are laid out system -> level -> cores -> prefetcher ->
    // workload: each block of nw cells is one (system, level, cores,
    // pf) group.
    const size_t nw = campaign.workloads.size();
    CampaignReport report;
    for (size_t base_idx = 0; base_idx < campaign.cells.size();
         base_idx += nw) {
        const CampaignCell &first = campaign.cells[base_idx];
        for (const auto &suite : suiteOrder) {
            CampaignSuiteRow row;
            row.system = first.system;
            row.prefetcher = first.prefetcher;
            row.level = first.level;
            row.cores = first.cores;
            row.suite = suite;
            std::vector<const PrefetchMetrics *> members;
            for (size_t wi = 0; wi < nw; ++wi)
                if (campaign.workloads[wi].suite == suite)
                    members.push_back(&metrics[base_idx + wi]);
            row.workloads = static_cast<uint32_t>(members.size());
            row.summary = summarizeSuite(members);
            report.suites.push_back(std::move(row));
        }
    }

    // ---- JSON document (pure function of the cache content) --------
    JsonWriter j;
    j.beginObject();
    j.field("campaign", campaign.spec.name);
    j.field("schema", uint64_t(kCellSchemaVersion));

    j.key("config").beginObject();
    j.field("scale", simScale());
    j.field("warmup_instructions", campaign.spec.run.effectiveWarmup());
    j.field("sim_instructions", campaign.spec.run.effectiveSim());
    if (campaign.spec.traceDir.empty())
        j.key("trace_dir").nullValue();
    else
        j.field("trace_dir", campaign.spec.traceDir);
    j.key("levels").beginArray();
    for (const auto &level : campaign.spec.levels)
        j.value(level);
    j.endArray();
    j.key("cores").beginArray();
    for (uint32_t c : campaign.spec.coreCounts)
        j.value(uint64_t(c));
    j.endArray();
    j.endObject();

    j.key("prefetchers").beginArray();
    for (const auto &p : campaign.spec.prefetchers)
        j.value(p.label());
    j.endArray();

    j.key("workloads").beginArray();
    for (const auto &w : campaign.workloads) {
        j.beginObject();
        j.field("name", w.name);
        j.field("suite", w.suite);
        j.field("identity", workloadIdentity(w));
        j.endObject();
    }
    j.endArray();

    j.key("cells").beginArray();
    for (size_t i = 0; i < campaign.cells.size(); ++i) {
        const CampaignCell &cell = campaign.cells[i];
        const PrefetchMetrics &m = metrics[i];
        const CellRecord &base =
            baselineRecords.at(cell.baselineHash);
        j.beginObject();
        j.field("system", cell.system);
        j.field("prefetcher", cell.prefetcher);
        j.field("level", cell.level);
        j.field("cores", uint64_t(cell.cores));
        j.field("workload", cell.workload.name);
        j.field("suite", cell.workload.suite);
        j.field("speedup", m.speedup);
        j.field("accuracy", m.accuracy);
        j.field("coverage", m.coverage);
        j.field("late_fraction", m.lateFraction);
        j.field("ipc", cellRecords[i].summary.ipc);
        j.field("base_ipc", base.summary.ipc);
        j.field("pf_issued", m.pfIssued);
        j.field("pf_filled", m.pfFilled);
        j.field("pf_useful", m.pfUseful);
        j.field("pf_late", m.pfLate);
        j.field("pf_late_load", m.pfLateLoad);
        j.field("pf_late_rfo", m.pfLateRfo);
        j.field("llc_miss_base", m.llcMissBase);
        j.field("llc_miss_pf", m.llcMissPf);
        j.field("pf_dropped_hit", cellRecords[i].summary.pfDroppedHit);
        // Per-scheme attribution (obs lifecycle tracking; empty on
        // GAZE_OBS=OFF builds and for records predating schema v4).
        j.key("schemes").beginArray();
        for (const SchemeMetrics &s : m.schemes) {
            j.beginObject();
            j.field("name", s.name);
            j.field("issued", s.issued);
            j.field("filled", s.filled);
            j.field("useful", s.useful);
            j.field("late", s.late);
            j.field("useless", s.useless);
            j.field("accuracy", s.accuracy);
            j.field("coverage", s.coverage);
            j.field("pollution", s.pollution);
            j.field("late_fraction", s.lateFraction);
            j.field("avg_fill_to_use", s.avgFillToUse);
            j.endObject();
        }
        j.endArray();
        j.field("cell", cellHashHex(cell.hash));
        j.field("baseline", cellHashHex(cell.baselineHash));
        j.endObject();
    }
    j.endArray();

    j.key("suites").beginArray();
    for (const auto &row : report.suites) {
        j.beginObject();
        j.field("system", row.system);
        j.field("prefetcher", row.prefetcher);
        j.field("level", row.level);
        j.field("cores", uint64_t(row.cores));
        j.field("suite", row.suite);
        j.field("workloads", uint64_t(row.workloads));
        j.field("speedup", row.summary.speedup);
        j.field("accuracy", row.summary.accuracy);
        j.field("coverage", row.summary.coverage);
        j.field("late_fraction", row.summary.lateFraction);
        j.endObject();
    }
    j.endArray();

    if (previous) {
        std::map<RowKey, double> before =
            previousSuiteSpeedups(*previous);
        uint64_t unmatched = 0;
        j.key("compare").beginObject();
        j.key("suites").beginArray();
        for (const auto &row : report.suites) {
            auto it = before.find({row.system, row.prefetcher, row.level,
                                   row.cores, row.suite});
            if (it == before.end()) {
                ++unmatched;
                continue;
            }
            j.beginObject();
            j.field("system", row.system);
            j.field("prefetcher", row.prefetcher);
            j.field("level", row.level);
            j.field("cores", uint64_t(row.cores));
            j.field("suite", row.suite);
            double after = jsonRounded(row.summary.speedup);
            j.field("speedup_before", it->second);
            j.field("speedup_after", after);
            j.field("speedup_delta", after - it->second);
            j.endObject();
        }
        j.endArray();
        j.field("rows_without_previous", unmatched);
        j.endObject();
    }

    j.endObject();
    report.json = j.str();

    // ---- per-suite CSV ----------------------------------------------
    CsvExport csv(campaign.spec.name);
    csv.header({"system", "prefetcher", "level", "cores", "suite",
                "workloads", "speedup", "accuracy", "coverage",
                "late_fraction"});
    for (const auto &row : report.suites) {
        csv.row({row.system, row.prefetcher, row.level,
                 std::to_string(row.cores),
                 row.suite, std::to_string(row.workloads),
                 csvNum(row.summary.speedup),
                 csvNum(row.summary.accuracy),
                 csvNum(row.summary.coverage),
                 csvNum(row.summary.lateFraction)});
    }
    report.csv = csv.toCsv();
    return report;
}

std::string
reportTable(const std::vector<CampaignSuiteRow> &rows)
{
    TextTable t({"system", "prefetcher", "level", "cores", "suite",
                 "workloads", "speedup", "accuracy", "coverage", "late"});
    for (const auto &row : rows) {
        t.addRow({row.system, row.prefetcher, row.level,
                  std::to_string(row.cores),
                  row.suite, std::to_string(row.workloads),
                  TextTable::fmt(row.summary.speedup),
                  TextTable::pct(row.summary.accuracy),
                  TextTable::pct(row.summary.coverage),
                  TextTable::pct(row.summary.lateFraction)});
    }
    return t.toString();
}

std::string
describeCampaignStorage(const CampaignSpec &spec, bool json)
{
    // One canonical spec: its live storage and, for Gaze, Table I.
    struct Part
    {
        std::string spec;
        uint64_t bits = 0;
        std::vector<GazeStorageRow> rows;
    };
    auto partOf = [](const std::string &canon) {
        Part part;
        part.spec = canon;
        std::unique_ptr<Prefetcher> pf = resolvePrefetcherSpec(canon).build();
        if (pf)
            part.bits = pf->storageBits();
        if (const auto *g = dynamic_cast<const GazePrefetcher *>(pf.get()))
            part.rows = gazeStorageBreakdown(g->config());
        return part;
    };
    auto kib = [](uint64_t bits) { return double(bits) / 8.0 / 1024.0; };

    JsonWriter j;
    j.beginObject();
    j.field("campaign", spec.name);
    j.key("prefetchers").beginArray();
    TextTable entries({"prefetcher", "KiB"});
    std::vector<Part> gazeParts;
    for (const CampaignPrefetcher &entry : spec.prefetchers) {
        std::vector<Part> parts = {partOf(entry.spec)};
        if (entry.isPair())
            parts.push_back(partOf(entry.l2));
        uint64_t bits = 0;
        for (const Part &part : parts) {
            bits += part.bits;
            bool seen = false;
            for (const Part &g : gazeParts)
                seen = seen || g.spec == part.spec;
            if (!part.rows.empty() && !seen)
                gazeParts.push_back(part);
        }
        entries.addRow({entry.label(), TextTable::fmt(kib(bits), 2)});
        j.beginObject();
        j.field("label", entry.label());
        j.key("specs").beginArray();
        for (const Part &part : parts)
            j.value(part.spec);
        j.endArray();
        j.field("storage_bits", bits);
        j.field("storage_kib", kib(bits));
        j.endObject();
    }
    j.endArray();

    std::string text = spec.name + ": prefetcher storage (live "
                       "storageBits())\n" + entries.toString();
    j.key("gaze_table_i").beginArray();
    for (const Part &part : gazeParts) {
        TextTable rows({"structure", "bytes", "fields"});
        j.beginObject();
        j.field("spec", part.spec);
        j.key("structures").beginArray();
        for (const GazeStorageRow &row : part.rows) {
            rows.addRow({row.structure, TextTable::fmt(row.bits / 8.0, 1),
                         row.fields});
            j.beginObject();
            j.field("structure", row.structure);
            j.field("fields", row.fields);
            j.field("bits", row.bits);
            j.endObject();
        }
        j.endArray();
        j.endObject();
        text += "\n" + part.spec + ": Table I breakdown\n" + rows.toString();
    }
    j.endArray();
    j.endObject();
    return json ? j.str() + "\n" : text;
}

CampaignCacheStatus
campaignStatus(const Campaign &campaign, const ResultCache &cache)
{
    CampaignCacheStatus status;
    CellRecord rec;
    for (const auto &b : campaign.baselines) {
        if (cache.lookup(b.hash, b.key, &rec))
            ++status.cached;
        else
            ++status.missing;
    }
    for (const auto &cell : campaign.cells) {
        if (cache.lookup(cell.hash, cell.key, &rec))
            ++status.cached;
        else
            ++status.missing;
    }
    return status;
}

std::string
campaignStatusJson(const Campaign &campaign, const ResultCache &cache)
{
    CampaignCacheStatus status = campaignStatus(campaign, cache);
    JsonWriter j;
    j.beginObject();
    j.key("campaign").value(campaign.spec.name);
    j.key("schema").value(uint64_t(kCellSchemaVersion));
    j.key("total").value(status.cached + status.missing);
    j.key("cached").value(status.cached);
    j.key("missing").value(status.missing);
    j.key("cache_dir").value(cache.directory());
    j.endObject();
    return j.str();
}

} // namespace gaze
