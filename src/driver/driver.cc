#include "driver/driver.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common/log.hh"
#include "driver/thread_pool.hh"
#include "obs/trace.hh"
#include "prefetchers/registry.hh"
#include "harness/export.hh"
#include "harness/wallclock.hh"
#include "harness/table.hh"

namespace gaze
{
namespace
{

/**
 * Combined --obs-timeline document: every cell's sampler rows, each
 * prefixed with the (prefetcher, workload) cell identity so one CSV
 * holds the whole matrix. Deterministic: cells in matrix order,
 * columns in registry (name-sorted) order.
 */
std::string
timelineCsv(const MatrixSpec &spec,
            const std::vector<RunResult> &baselines,
            const std::vector<RunResult> &runs)
{
    const obs::SampleSeries *first = nullptr;
    for (const auto &r : baselines)
        if (!first && !r.obsSamples.names.empty())
            first = &r.obsSamples;
    for (const auto &r : runs)
        if (!first && !r.obsSamples.names.empty())
            first = &r.obsSamples;

    std::string csv = "prefetcher,workload,cycle";
    if (first)
        for (const auto &n : first->names) {
            csv += ',';
            csv += n;
        }
    csv += '\n';

    auto append = [&](const std::string &pf, const std::string &w,
                      const obs::SampleSeries &s) {
        for (const auto &row : s.rows) {
            csv += pf;
            csv += ',';
            csv += w;
            csv += ',';
            csv += std::to_string(row.cycle);
            for (uint64_t v : row.values) {
                csv += ',';
                csv += std::to_string(v);
            }
            csv += '\n';
        }
    };
    const size_t nw = spec.workloads.size();
    for (size_t wi = 0; wi < nw; ++wi)
        append("none", spec.workloads[wi].name,
               baselines[wi].obsSamples);
    for (size_t pi = 0; pi < spec.prefetchers.size(); ++pi)
        for (size_t wi = 0; wi < nw; ++wi)
            append(spec.prefetchers[pi], spec.workloads[wi].name,
                   runs[pi * nw + wi].obsSamples);
    return csv;
}

} // namespace

MatrixResult
runMatrix(const MatrixSpec &spec)
{
    GAZE_ASSERT(!spec.prefetchers.empty(), "matrix needs a prefetcher axis");
    GAZE_ASSERT(!spec.workloads.empty(), "matrix needs a workload axis");
    GAZE_ASSERT(spec.cores >= 1, "matrix needs at least one core per cell");
    // Validate the level and every factory spec up front so a bad
    // flag fails before any simulation time is spent (and on the
    // calling thread, not inside a pool worker). Resolution also
    // validates each spec against its registry schema without paying
    // for a construction.
    pfSpecAt("none", spec.level);
    for (const auto &p : spec.prefetchers)
        resolvePrefetcherSpec(p);

    const size_t nw = spec.workloads.size();
    const size_t np = spec.prefetchers.size();
    const size_t jobs = nw + np * nw;

    WallTimer matrixTimer;

    std::vector<RunResult> baselines(nw);
    std::vector<RunResult> runs(np * nw);
    std::vector<double> cellSeconds(np * nw, 0.0);

    std::mutex progressMtx;
    size_t finished = 0;
    auto progress = [&](const std::string &pf, const std::string &w,
                        double secs) {
        if (!spec.verbose)
            return;
        std::unique_lock<std::mutex> lock(progressMtx);
        ++finished;
        std::fprintf(stderr, "[%zu/%zu] %s x %s (%.1fs)\n", finished,
                     jobs, pf.c_str(), w.c_str(), secs);
    };

    // One cell = one fresh System, fully independent of every other
    // cell, so the pool needs no synchronization beyond the pointers
    // into the pre-sized result vectors. Baselines additionally go
    // through the shared thread-safe cache so any future consumer of
    // these Runners (campaign engine, evaluate paths) deduplicates
    // against them instead of re-simulating.
    auto sharedBaselines = std::make_shared<BaselineCache>();

    // Observability: the matrix owns the trace sink; every cell's
    // Runner gets the same ObsConfig (excluded from cell identity).
    std::unique_ptr<obs::TraceSink> traceSink;
    if (!spec.obsTracePath.empty()) {
        traceSink = std::make_unique<obs::TraceSink>();
        obs::setGlobalTrace(traceSink.get());
    }
    RunConfig cellRun = spec.run;
    cellRun.obs.trace = traceSink.get();
    cellRun.obs.samplerInterval =
        spec.obsTimelinePath.empty() ? 0 : spec.obsInterval;

    std::atomic<uint64_t> totalInstr{0}, totalEvents{0};
    std::atomic<uint64_t> totalExecuted{0}, totalSkipped{0};
    std::array<std::atomic<uint64_t>, kTickClasses> totalTicks{};
    auto runCell = [&](const WorkloadDef &w, const PfSpec &pf,
                       RunResult *out, double *secs) {
        obs::HostSpan cellSpan(
            obs::globalTrace(),
            "cell " + (pf.isNone() ? "baseline" : pf.label()) + " x "
                + w.name);
        WallTimer cellTimer;
        Runner runner(cellRun, sharedBaselines);
        std::vector<WorkloadDef> mix(spec.cores, w);
        *out = pf.isNone() ? runner.baselineMix(mix)
                           : runner.runMix(mix, pf);
        double dt = cellTimer.seconds();
        if (secs)
            *secs = dt;
        totalInstr.fetch_add(out->instructionsRetired,
                             std::memory_order_relaxed);
        totalEvents.fetch_add(out->engine.eventsDispatched,
                              std::memory_order_relaxed);
        totalExecuted.fetch_add(out->engine.cyclesExecuted,
                                std::memory_order_relaxed);
        totalSkipped.fetch_add(out->engine.cyclesSkipped,
                               std::memory_order_relaxed);
        for (size_t k = 0; k < kTickClasses; ++k)
            totalTicks[k].fetch_add(out->engine.ticks[k],
                                    std::memory_order_relaxed);
        progress(pf.isNone() ? "baseline" : pf.label(), w.name, dt);
    };

    MatrixResult result;
    result.threadsUsed = resolvePoolThreads(spec.threads, jobs);
    {
        ThreadPool pool(result.threadsUsed);
        for (size_t wi = 0; wi < nw; ++wi) {
            pool.submit([&, wi] {
                runCell(spec.workloads[wi], PfSpec{}, &baselines[wi],
                        nullptr);
            });
        }
        for (size_t pi = 0; pi < np; ++pi) {
            PfSpec pf = pfSpecAt(spec.prefetchers[pi], spec.level);
            for (size_t wi = 0; wi < nw; ++wi) {
                size_t cell = pi * nw + wi;
                pool.submit([&, pf, cell, wi] {
                    runCell(spec.workloads[wi], pf, &runs[cell],
                            &cellSeconds[cell]);
                });
            }
        }
        pool.wait();
    }

    // Publish the obs artifacts before results are picked apart; the
    // global host-span hook must come down before the sink dies.
    if (traceSink)
        obs::setGlobalTrace(nullptr);
    if (!spec.obsTimelinePath.empty())
        writeTextFile(spec.obsTimelinePath,
                      timelineCsv(spec, baselines, runs));
    if (traceSink)
        traceSink->writeTo(spec.obsTracePath);

    result.cells.reserve(np * nw);
    for (size_t pi = 0; pi < np; ++pi) {
        for (size_t wi = 0; wi < nw; ++wi) {
            size_t idx = pi * nw + wi;
            CellOutcome c;
            c.prefetcher = spec.prefetchers[pi];
            c.workload = spec.workloads[wi].name;
            c.suite = spec.workloads[wi].suite;
            c.metrics = computeMetrics(baselines[wi], runs[idx]);
            c.ipc = runs[idx].ipc();
            c.baseIpc = baselines[wi].ipc();
            c.seconds = cellSeconds[idx];
            c.eventsDispatched = runs[idx].engine.eventsDispatched;
            c.cyclesExecuted = runs[idx].engine.cyclesExecuted;
            c.cyclesSkipped = runs[idx].engine.cyclesSkipped;
            c.minstrPerSec = runs[idx].minstrPerSec();
            result.cells.push_back(std::move(c));
        }
    }

    // Suite aggregation, in each suite's order of first appearance.
    std::vector<std::string> order;
    for (size_t wi = 0; wi < nw; ++wi) {
        const std::string &s = spec.workloads[wi].suite;
        if (std::find(order.begin(), order.end(), s) == order.end())
            order.push_back(s);
    }
    for (size_t pi = 0; pi < np; ++pi) {
        for (const auto &suite : order) {
            SuiteOutcome so;
            so.prefetcher = spec.prefetchers[pi];
            so.suite = suite;
            std::vector<const PrefetchMetrics *> members;
            for (size_t wi = 0; wi < nw; ++wi)
                if (spec.workloads[wi].suite == suite)
                    members.push_back(&result.cells[pi * nw + wi].metrics);
            so.workloads = static_cast<uint32_t>(members.size());
            so.summary = summarizeSuite(members);
            result.suites.push_back(std::move(so));
        }
    }

    result.engine = engineKindName(spec.run.system.engine);
    result.totalInstructions = totalInstr.load();
    result.totalEvents = totalEvents.load();
    result.totalCyclesExecuted = totalExecuted.load();
    result.totalCyclesSkipped = totalSkipped.load();
    for (size_t k = 0; k < kTickClasses; ++k)
        result.totalTicks[k] = totalTicks[k].load();
    result.seconds = matrixTimer.seconds();
    return result;
}

std::string
matrixToJson(const MatrixSpec &spec, const MatrixResult &result)
{
    JsonWriter j;
    j.beginObject();
    j.field("experiment", spec.name);

    j.key("config").beginObject();
    j.field("scale", simScale());
    j.field("warmup_instructions", spec.run.effectiveWarmup());
    j.field("sim_instructions", spec.run.effectiveSim());
    j.field("cores", uint64_t(spec.cores));
    j.field("level", spec.level);
    j.field("threads", uint64_t(result.threadsUsed));
    j.field("engine", result.engine);
    // Wall-clock throughput fields are only comparable between runs
    // on a like host; record the machine class alongside them.
    // gaze-lint: allow(raw-thread): hardware_concurrency() query
    // only, no thread is created
    j.field("host_cpus", uint64_t(std::thread::hardware_concurrency()));
    // Trace provenance: where the workload streams came from, so a
    // result document is reproducible on its own. trace_dir is null
    // for generator runs (traces regenerated from RNG state).
    if (spec.traceDir.empty())
        j.key("trace_dir").nullValue();
    else
        j.field("trace_dir", spec.traceDir);
    j.endObject();

    j.key("prefetchers").beginArray();
    for (const auto &p : spec.prefetchers)
        j.value(p);
    j.endArray();

    j.key("workloads").beginArray();
    for (const auto &w : spec.workloads) {
        j.beginObject();
        j.field("name", w.name);
        j.field("suite", w.suite);
        j.field("source",
                w.traceFile.empty() ? "generator" : "trace_file");
        if (!w.traceFile.empty())
            j.field("trace_file", w.traceFile);
        j.endObject();
    }
    j.endArray();

    j.key("cells").beginArray();
    for (const auto &c : result.cells) {
        j.beginObject();
        j.field("prefetcher", c.prefetcher);
        j.field("workload", c.workload);
        j.field("suite", c.suite);
        j.field("speedup", c.metrics.speedup);
        j.field("accuracy", c.metrics.accuracy);
        j.field("coverage", c.metrics.coverage);
        j.field("late_fraction", c.metrics.lateFraction);
        j.field("ipc", c.ipc);
        j.field("base_ipc", c.baseIpc);
        j.field("pf_issued", c.metrics.pfIssued);
        j.field("pf_filled", c.metrics.pfFilled);
        j.field("pf_useful", c.metrics.pfUseful);
        j.field("pf_late", c.metrics.pfLate);
        j.field("pf_late_load", c.metrics.pfLateLoad);
        j.field("pf_late_rfo", c.metrics.pfLateRfo);
        j.field("llc_miss_base", c.metrics.llcMissBase);
        j.field("llc_miss_pf", c.metrics.llcMissPf);
        // Per-scheme lifecycle attribution (empty when GAZE_OBS=OFF).
        j.key("schemes").beginArray();
        for (const SchemeMetrics &s : c.metrics.schemes) {
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
        j.field("seconds", c.seconds);
        j.field("events_dispatched", c.eventsDispatched);
        j.field("cycles_executed", c.cyclesExecuted);
        j.field("cycles_skipped", c.cyclesSkipped);
        j.field("minstr_per_sec", c.minstrPerSec);
        j.endObject();
    }
    j.endArray();

    j.key("suites").beginArray();
    for (const auto &s : result.suites) {
        j.beginObject();
        j.field("prefetcher", s.prefetcher);
        j.field("suite", s.suite);
        j.field("workloads", uint64_t(s.workloads));
        j.field("speedup", s.summary.speedup);
        j.field("accuracy", s.summary.accuracy);
        j.field("coverage", s.summary.coverage);
        j.field("late_fraction", s.summary.lateFraction);
        j.endObject();
    }
    j.endArray();

    // Simulation speed of the whole matrix: how fast the simulator
    // itself ran (every matrix run reports it; bench_engine tracks it
    // over time in BENCH_engine.json).
    j.key("engine").beginObject();
    j.field("kind", result.engine);
    j.field("instructions_simulated", result.totalInstructions);
    j.field("events_dispatched", result.totalEvents);
    j.field("cycles_executed", result.totalCyclesExecuted);
    j.field("cycles_skipped", result.totalCyclesSkipped);
    uint64_t totalCycles =
        result.totalCyclesExecuted + result.totalCyclesSkipped;
    j.field("skip_fraction",
            totalCycles ? double(result.totalCyclesSkipped)
                              / double(totalCycles)
                        : 0.0);
    j.field("minstr_per_sec", result.minstrPerSec());
    j.key("ticks").beginObject();
    for (size_t k = 0; k < kTickClasses; ++k)
        j.field(kTickClassNames[k], result.totalTicks[k]);
    j.endObject();
    j.endObject();

    j.field("elapsed_seconds", result.seconds);
    j.endObject();
    return j.str();
}

std::string
matrixEngineTable(const MatrixResult &result)
{
    TextTable t({"prefetcher", "workload", "minstr/s", "skipped",
                 "events", "late"});
    for (const auto &c : result.cells) {
        uint64_t cycles = c.cyclesExecuted + c.cyclesSkipped;
        double skip =
            cycles ? double(c.cyclesSkipped) / double(cycles) : 0.0;
        t.addRow({c.prefetcher, c.workload,
                  TextTable::fmt(c.minstrPerSec),
                  TextTable::pct(skip),
                  std::to_string(c.eventsDispatched),
                  std::to_string(c.metrics.pfLate)});
    }
    std::string out = t.toString();

    uint64_t totalCycles =
        result.totalCyclesExecuted + result.totalCyclesSkipped;
    double skip = totalCycles ? double(result.totalCyclesSkipped)
                                    / double(totalCycles)
                              : 0.0;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "\nengine: %s | %.2f Minstr in %.2fs -> %.2f "
                  "Minstr/s aggregate | %.1f%% of cycles skipped | "
                  "ticks",
                  result.engine.c_str(),
                  double(result.totalInstructions) / 1e6,
                  result.seconds, result.minstrPerSec(),
                  100.0 * skip);
    out += line;
    for (size_t k = 0; k < kTickClasses; ++k)
        out += std::string(" ") + kTickClassNames[k] + "="
               + std::to_string(result.totalTicks[k]);
    out += "\n";
    return out;
}

std::string
matrixSchemeTable(const MatrixResult &result)
{
    bool any = false;
    for (const auto &c : result.cells)
        any = any || !c.metrics.schemes.empty();
    if (!any)
        return "";

    TextTable t({"prefetcher", "workload", "scheme", "issued",
                 "filled", "useful", "late", "useless", "accuracy",
                 "pollution", "fill2use"});
    for (const auto &c : result.cells) {
        for (const SchemeMetrics &s : c.metrics.schemes) {
            t.addRow({c.prefetcher, c.workload, s.name,
                      std::to_string(s.issued),
                      std::to_string(s.filled),
                      std::to_string(s.useful),
                      std::to_string(s.late),
                      std::to_string(s.useless),
                      TextTable::pct(s.accuracy),
                      TextTable::pct(s.pollution),
                      TextTable::fmt(s.avgFillToUse)});
        }
    }
    return t.toString();
}

std::string
matrixToTable(const MatrixResult &result)
{
    TextTable t({"prefetcher", "suite", "workloads", "speedup",
                 "accuracy", "coverage", "late"});
    for (const auto &s : result.suites) {
        t.addRow({s.prefetcher, s.suite, std::to_string(s.workloads),
                  TextTable::fmt(s.summary.speedup),
                  TextTable::pct(s.summary.accuracy),
                  TextTable::pct(s.summary.coverage),
                  TextTable::pct(s.summary.lateFraction)});
    }
    return t.toString();
}

} // namespace gaze
