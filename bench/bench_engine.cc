/**
 * @file
 * bench_engine — simulator-throughput benchmark for the simulation
 * engines. Runs representative cells under the polled reference loop
 * and the wake-hint event engine, verifies their metrics are
 * bit-identical, and reports wall-clock speedup,
 * Minstr/s and the skipped-cycle fraction per cell. Everything lands
 * in BENCH_engine.json — per-cell rows plus a geomean/min aggregate
 * row and the host CPU count, so the perf trajectory
 * (and the host it was measured on) is recorded over time.
 *
 * The headline case is the low-MLP pointer chase (canneal): one
 * dependent load in flight at a time leaves almost every cycle idle,
 * which the event engine skips in O(1). The dense stream (leslie3d)
 * is the honest lower bound — little to skip — where the event
 * engine must still stay >= 1.0x.
 *
 * Timing is best-of-3 per (cell, engine): metrics are identical across
 * repeats by construction (asserted elsewhere), so the fastest wall
 * time is the least noisy estimate — the dense cells finish in tens
 * of milliseconds, where single-run scheduler noise dwarfs the
 * engine-overhead differences being measured. The median of the same
 * repeats is reported alongside (seconds_median / minstr_per_sec_median
 * in the JSON) as the robustness check: best and median diverging
 * flags a noisy host, not a faster simulator.
 *
 * When a committed BENCH_engine.json baseline is readable (cwd or the
 * parent directory, i.e. the repo root when run from build/), the
 * full run additionally prints a per-cell before/after table of
 * polled-engine Minstr/s against it, so structure-level work shows up
 * as a reviewable throughput delta per cell. The table needs a
 * baseline recorded at the same scale, phase lengths and host CPU
 * count; otherwise one SKIPPED line names the first field that
 * differs.
 *
 *   bench_engine            full comparison (honors GAZE_SIM_SCALE)
 *   bench_engine --quick    short cells; asserts throughput > 0 AND
 *                           cross-engine metric identity, dying
 *                           loudly on any mismatch (the check.sh /
 *                           CTest smoke)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "common/log.hh"
#include "harness/export.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "workloads/suites.hh"

namespace
{

using namespace gaze;

/** One engine's timed view of a cell. */
struct EngineRun
{
    RunResult result;
    double bestSeconds = 0.0;
    double medianSeconds = 0.0;

    double
    minstrPerSec(double seconds) const
    {
        return seconds > 0.0
                   ? double(result.instructionsRetired) / seconds / 1e6
                   : 0.0;
    }
};

RunConfig
configFor(EngineKind engine)
{
    RunConfig cfg;
    cfg.system.engine = engine;
    return cfg; // phase lengths come from GAZE_SIM_SCALE
}

/**
 * Run @p mix under @p cfg @p repeats times; keep the first run's
 * metrics (repeats are bit-identical), the fastest wall time, and the
 * median wall time (the headline vs the robustness check).
 */
EngineRun
timedRun(const RunConfig &cfg, const std::vector<WorkloadDef> &mix,
         const PfSpec &pf, int repeats = 3)
{
    EngineRun er;
    std::vector<double> seconds;
    seconds.reserve(repeats);
    for (int i = 0; i < repeats; ++i) {
        Runner runner(cfg);
        RunResult r = runner.runMix(mix, pf);
        seconds.push_back(r.wallSeconds);
        if (i == 0)
            er.result = std::move(r);
    }
    std::sort(seconds.begin(), seconds.end());
    er.bestSeconds = seconds.front();
    er.medianSeconds = seconds[seconds.size() / 2];
    return er;
}

/** A header field the baseline must share with the fresh run. */
struct BaselineField
{
    const char *key;
    double fresh;
};

/** @p v as JsonWriter prints it, so both sides compare as text. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

/**
 * Per-cell polled Minstr/s from a committed BENCH_engine.json, keyed
 * "workload|prefetcher". The file is our own JsonWriter output, so a
 * targeted scan (no general JSON parser in the tree) is enough: for
 * each "workload"/"prefetcher" pair, take the first "minstr_per_sec"
 * inside the following "polled" block. Cells whose next block is not
 * "polled" (the mix rows of older recordings) are skipped.
 *
 * Throughput only compares across like work on a like host, so every
 * @p fields entry must match the baseline's header, as
 * scripts/bench_compare.py requires. Returns empty when no baseline
 * is readable, or after printing one SKIPPED line for the first
 * field that differs — the before/after table is then omitted.
 */
std::vector<std::pair<std::string, double>>
loadPolledBaseline(const std::vector<BaselineField> &fields,
                   std::string *pathUsed)
{
    std::vector<std::pair<std::string, double>> base;
    std::string text;
    for (const char *path : {"BENCH_engine.json", "../BENCH_engine.json"}) {
        std::FILE *f = std::fopen(path, "rb");
        if (!f)
            continue;
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        *pathUsed = path;
        break;
    }
    if (text.empty())
        return base;

    for (const BaselineField &field : fields) {
        std::string key = std::string("\"") + field.key + "\":";
        size_t k = text.find(key);
        std::string was =
            k == std::string::npos
                ? "missing"
                : jsonNumber(std::strtod(text.c_str() + k + key.size(),
                                         nullptr));
        std::string now = jsonNumber(field.fresh);
        if (was != now) {
            std::printf("\nSKIPPED: baseline table — %s differs "
                        "(baseline %s, fresh %s)\n",
                        field.key, was.c_str(), now.c_str());
            return base;
        }
    }

    auto stringAfter = [&](const char *key, size_t &pos) {
        size_t k = text.find(key, pos);
        if (k == std::string::npos)
            return std::string();
        k += std::strlen(key);
        size_t end = text.find('"', k);
        if (end == std::string::npos)
            return std::string();
        pos = end + 1;
        return text.substr(k, end - k);
    };

    size_t pos = 0;
    while (true) {
        std::string wl = stringAfter("\"workload\":\"", pos);
        if (wl.empty())
            break;
        std::string pf = stringAfter("\"prefetcher\":\"", pos);
        if (pf.empty())
            break;
        size_t polled = text.find("\"polled\":{", pos);
        size_t nextCell = text.find("\"workload\":\"", pos);
        if (polled == std::string::npos
            || (nextCell != std::string::npos && polled > nextCell))
            continue; // mix cell: no polled block before the next row
        size_t v = text.find("\"minstr_per_sec\":", polled);
        if (v == std::string::npos)
            break;
        v += std::strlen("\"minstr_per_sec\":");
        base.emplace_back(wl + "|" + pf,
                          std::strtod(text.c_str() + v, nullptr));
        pos = v;
    }
    return base;
}

/**
 * Die unless @p got reproduced @p ref bit for bit on everything the
 * paper metrics consume: the summary slice, per-core retirement and
 * the total cycle count. Engine-speed counters (events dispatched,
 * cycles skipped) legitimately differ between engines and are
 * excluded — that is the differential-test contract
 * (tests/test_engine_diff.cc) applied at bench time.
 */
void
checkIdentical(const RunResult &ref, const RunResult &got,
               const std::string &cell, const char *engineLabel)
{
    RunSummary a = summarize(ref);
    RunSummary b = summarize(got);
    bool same = a.ipc == b.ipc && a.pfIssued == b.pfIssued
                && a.pfFilled == b.pfFilled
                && a.pfUseful == b.pfUseful && a.pfLate == b.pfLate
                && a.llcDemandMiss == b.llcDemandMiss
                && ref.engine.cyclesTotal == got.engine.cyclesTotal
                && ref.cores.size() == got.cores.size();
    if (same) {
        for (size_t c = 0; c < ref.cores.size(); ++c)
            same = same
                   && ref.cores[c].instructions
                          == got.cores[c].instructions
                   && ref.cores[c].cycles == got.cores[c].cycles;
    }
    if (!same)
        GAZE_FATAL("engine mismatch on ", cell, ": ", engineLabel,
                   " metrics differ from the polled/reference run — "
                   "engines must be bit-identical");
}

void
printAggregate(const char *label, const std::vector<double> &speedups)
{
    double lo = speedups.empty() ? 0.0 : speedups[0];
    for (double s : speedups)
        lo = std::min(lo, s);
    std::printf("%-18s | geomean %.2fx | min %.2fx\n", label,
                geomean(speedups), lo);
}

void
jsonAggregate(JsonWriter &j, const char *key,
              const std::vector<double> &speedups)
{
    double lo = speedups.empty() ? 0.0 : speedups[0];
    for (double s : speedups)
        lo = std::min(lo, s);
    j.key(key).beginObject();
    j.field("geomean_wall_speedup", geomean(speedups));
    j.field("min_wall_speedup", lo);
    j.endObject();
}

void
jsonEngineBlock(JsonWriter &j, const char *key, const EngineRun &er)
{
    const RunResult &r = er.result;
    j.key(key).beginObject();
    j.field("seconds", er.bestSeconds);
    j.field("minstr_per_sec", er.minstrPerSec(er.bestSeconds));
    j.field("seconds_median", er.medianSeconds);
    j.field("minstr_per_sec_median", er.minstrPerSec(er.medianSeconds));
    j.field("cycles_total", r.engine.cyclesTotal);
    j.field("cycles_executed", r.engine.cyclesExecuted);
    j.field("cycles_skipped", r.engine.cyclesSkipped);
    j.field("events_dispatched", r.engine.eventsDispatched);
    j.field("skip_fraction", r.engine.skipFraction());
    j.endObject();
}

int
quickSmoke()
{
    // One short cell, event engine: throughput and idle-skip sanity.
    Runner runner(configFor(EngineKind::Event));
    RunResult r = runner.run(findWorkload("canneal"), PfSpec{});
    double minstr = r.minstrPerSec();
    std::printf("bench_engine quick: canneal x none | "
                "%.3f Minstr/s | %llu/%llu cycles skipped (%.1f%%)\n",
                minstr,
                static_cast<unsigned long long>(r.engine.cyclesSkipped),
                static_cast<unsigned long long>(r.engine.cyclesTotal),
                100.0 * r.engine.skipFraction());
    GAZE_ASSERT(minstr > 0.0, "throughput must be positive");
    GAZE_ASSERT(r.engine.cyclesSkipped > 0,
                "a pointer chase must skip idle cycles");

    // Cross-engine identity gate: the event engine must reproduce the
    // polled reference bit for bit, and checkIdentical dies with
    // GAZE_FATAL if it ever does not. Single-core canneal x gaze and a
    // 2-core mix (shared LLC/DRAM traffic) are both checked.
    PfSpec gazePf;
    gazePf.l1 = "gaze";
    const std::vector<std::pair<std::string, std::vector<WorkloadDef>>>
        mixes = {{"canneal x gaze", {findWorkload("canneal")}},
                 {"canneal+mcf x gaze",
                  {findWorkload("canneal"), findWorkload("mcf")}}};
    for (const auto &[cell, mix] : mixes)
        checkIdentical(
            Runner(configFor(EngineKind::Polled)).runMix(mix, gazePf),
            Runner(configFor(EngineKind::Event)).runMix(mix, gazePf),
            cell, "event");
    std::printf("bench_engine quick: metrics identical across "
                "polled/event (1- and 2-core)\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gaze;

    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else
            GAZE_FATAL("unknown option '", argv[i],
                       "' (usage: bench_engine [--quick])");
    }
    if (quick)
        return quickSmoke();

    bench::banner("bench_engine",
                  "polled vs event engine throughput");

    unsigned hostCpus = std::thread::hardware_concurrency();
    std::printf("host CPUs: %u\n\n", hostCpus);

    // Low-MLP pointer chases (big idle-skip win), a dense stream
    // (little to skip: the honest lower bound), and a mixed graph
    // workload, with and without a prefetcher.
    const std::vector<std::string> workloads = {"canneal", "mcf",
                                                "leslie3d", "BFS-17"};
    const std::vector<std::string> prefetchers = {"none", "gaze"};

    struct SingleCell
    {
        std::string workload;
        std::string prefetcher;
        EngineRun polled, event;
    };
    std::vector<SingleCell> cells;
    std::vector<double> eventSpeedups;
    for (const auto &wname : workloads) {
        std::vector<WorkloadDef> mix = {findWorkload(wname)};
        for (const auto &pname : prefetchers) {
            PfSpec pf;
            if (pname != "none")
                pf.l1 = pname;
            SingleCell c;
            c.workload = wname;
            c.prefetcher = pname;
            c.polled = timedRun(configFor(EngineKind::Polled), mix, pf);
            c.event = timedRun(configFor(EngineKind::Event), mix, pf);
            std::string cell = wname + " x " + pname;
            checkIdentical(c.polled.result, c.event.result, cell,
                           "event");
            double se = c.polled.bestSeconds / c.event.bestSeconds;
            eventSpeedups.push_back(se);
            std::printf("%-10s x %-6s | polled %6.3fs | event %6.3fs "
                        "(%4.2fx) | %4.1f%% skipped\n",
                        wname.c_str(), pname.c_str(),
                        c.polled.bestSeconds, c.event.bestSeconds, se,
                        100.0 * c.event.result.engine.skipFraction());
            cells.push_back(std::move(c));
        }
    }

    // Per-cell before/after against the committed baseline: the polled
    // column is where data-structure work shows up undiluted by
    // idle-cycle skipping, so it is the one compared.
    const uint64_t warmup = RunConfig{}.effectiveWarmup();
    const uint64_t sim = RunConfig{}.effectiveSim();
    std::string basePath;
    auto baseline = loadPolledBaseline(
        {{"scale", simScale()},
         {"warmup_instructions", double(warmup)},
         {"sim_instructions", double(sim)},
         {"host_cpus", double(hostCpus)}},
        &basePath);
    if (!baseline.empty()) {
        std::printf("\npolled Minstr/s vs committed baseline (%s):\n",
                    basePath.c_str());
        std::vector<double> ratios;
        for (const auto &c : cells) {
            std::string key = c.workload + "|" + c.prefetcher;
            double before = 0.0;
            for (const auto &kv : baseline)
                if (kv.first == key)
                    before = kv.second;
            double after = c.polled.minstrPerSec(c.polled.bestSeconds);
            if (before <= 0.0) {
                std::printf("  %-10s x %-6s | (no baseline) -> %6.3f\n",
                            c.workload.c_str(), c.prefetcher.c_str(),
                            after);
                continue;
            }
            ratios.push_back(after / before);
            std::printf(
                "  %-10s x %-6s | before %6.3f -> after %6.3f (%.2fx)\n",
                c.workload.c_str(), c.prefetcher.c_str(), before, after,
                after / before);
        }
        if (!ratios.empty())
            std::printf("  geomean polled improvement: %.2fx\n",
                        geomean(ratios));
    }

    std::printf("\nwall-clock speedups (metrics bit-identical on "
                "every cell):\n");
    printAggregate("event vs polled", eventSpeedups);

    JsonWriter j;
    j.beginObject();
    j.field("experiment", "engine");
    j.field("scale", simScale());
    j.field("warmup_instructions", warmup);
    j.field("sim_instructions", sim);
    j.field("host_cpus", uint64_t(hostCpus));
    j.key("cells").beginArray();
    for (const auto &c : cells) {
        j.beginObject();
        j.field("workload", c.workload);
        j.field("prefetcher", c.prefetcher);
        jsonEngineBlock(j, "polled", c.polled);
        jsonEngineBlock(j, "event", c.event);
        j.field("wall_speedup",
                c.polled.bestSeconds / c.event.bestSeconds);
        j.field("metrics_identical", true); // asserted fatally above
        j.endObject();
    }
    j.endArray();
    j.key("aggregates").beginObject();
    jsonAggregate(j, "event", eventSpeedups);
    j.endObject();
    j.field("geomean_wall_speedup", geomean(eventSpeedups));
    j.endObject();

    JsonExport doc("engine", j.str());
    std::string path = doc.write();
    std::printf("results: %s\n", path.c_str());
    return 0;
}
