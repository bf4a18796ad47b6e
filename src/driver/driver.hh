/**
 * @file
 * The suite-runner driver behind the gaze_sim CLI: executes an
 * arbitrary prefetcher x workload matrix across a thread pool (one
 * System per cell, shared no-prefetch baselines), aggregates the
 * SIV-A3 metrics per cell and per suite, and renders the whole matrix
 * as a BENCH_<name>.json document via harness/export.
 *
 * The library half lives here so tests can run tiny matrices
 * in-process; main.cc only parses flags.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "workloads/suites.hh"

namespace gaze
{

/** Everything one matrix run needs. */
struct MatrixSpec
{
    /** Factory specs for the prefetcher axis (e.g. "gaze", "pmp"). */
    std::vector<std::string> prefetchers;

    /** Workload axis (suite expansion happens in the CLI). */
    std::vector<WorkloadDef> workloads;

    /**
     * Where the workloads' .gzt files came from when they replay
     * recorded traces (--trace-dir); empty for generator runs. Only
     * provenance — the workloads already carry their traceFile.
     */
    std::string traceDir;

    /** Attach level for every prefetcher: "l1" or "l2". */
    std::string level = "l1";

    /** Homogeneous core count per cell (workload replicated N times). */
    uint32_t cores = 1;

    /** System + phase lengths shared by every cell. */
    RunConfig run;

    /** Worker threads; 0 = hardware concurrency. */
    uint32_t threads = 0;

    /** Experiment id for the BENCH_<name>.json document. */
    std::string name = "gaze_sim";

    /** Per-cell progress lines on stderr. */
    bool verbose = false;

    // ---- Observability ---------------------------------------------
    // Obs never perturbs simulated state (obs-on runs are bitwise
    // identical to obs-off), so these knobs change only what gets
    // written next to the results, never the results themselves.

    /** Combined interval-sampler CSV path (--obs-timeline; "" = off). */
    std::string obsTimelinePath;

    /** Chrome-trace JSON path (--obs-trace; "" = off). */
    std::string obsTracePath;

    /** Sampler epoch in cycles (with --obs-timeline). */
    uint64_t obsInterval = 4096;
};

/** One (prefetcher, workload) cell of a finished matrix. */
struct CellOutcome
{
    std::string prefetcher;
    std::string workload;
    std::string suite;

    PrefetchMetrics metrics;
    double ipc = 0.0;     ///< mean IPC with the prefetcher
    double baseIpc = 0.0; ///< mean IPC of the shared baseline
    double seconds = 0.0; ///< wall time of this cell's simulation

    // Engine-speed slice of this cell's run (baseline excluded).
    uint64_t eventsDispatched = 0;
    uint64_t cyclesExecuted = 0;
    uint64_t cyclesSkipped = 0;
    double minstrPerSec = 0.0;
};

/** Suite-level aggregate for one prefetcher (geomean speedup etc.). */
struct SuiteOutcome
{
    std::string prefetcher;
    std::string suite;
    SuiteSummary summary;
    uint32_t workloads = 0;
};

/** A completed matrix. */
struct MatrixResult
{
    std::vector<CellOutcome> cells;   ///< row-major: prefetcher, workload
    std::vector<SuiteOutcome> suites; ///< per (prefetcher, suite)
    double seconds = 0.0;             ///< wall time of the whole matrix
    uint32_t threadsUsed = 0;

    // Whole-matrix engine totals, baselines included. The aggregate
    // throughput (totalInstructions / seconds) reflects thread-pool
    // parallelism, unlike the per-cell numbers.
    std::string engine;               ///< "event" or "polled"
    uint64_t totalInstructions = 0;
    uint64_t totalEvents = 0;
    uint64_t totalCyclesExecuted = 0;
    uint64_t totalCyclesSkipped = 0;
    /** Gate-passed ticks per component class (see EngineStats). */
    std::array<uint64_t, kTickClasses> totalTicks{};

    /** Matrix-level Minstr/s (all simulated instructions over wall). */
    double
    minstrPerSec() const
    {
        return seconds > 0.0
                   ? double(totalInstructions) / seconds / 1e6
                   : 0.0;
    }
};

/**
 * Run the matrix: baselines first (one per workload, shared by every
 * prefetcher row), then all prefetcher cells, all on the pool. Fatal
 * on empty axes or an unknown level.
 */
MatrixResult runMatrix(const MatrixSpec &spec);

/** Render spec + result as the BENCH_*.json document text. */
std::string matrixToJson(const MatrixSpec &spec, const MatrixResult &result);

/** Render the per-suite summary as an aligned text table for stdout. */
std::string matrixToTable(const MatrixResult &result);

/**
 * Render per-cell simulation-speed stats (Minstr/s, skipped-cycle
 * fraction, events, late prefetches) plus the matrix aggregate with
 * its per-component tick counts: gaze_sim --engine-stats output.
 */
std::string matrixEngineTable(const MatrixResult &result);

/**
 * Render the per-scheme lifecycle breakdown (obs attribution): one
 * row per (prefetcher, workload, scheme) with accuracy / pollution /
 * timeliness. Empty string when no cell carries scheme data
 * (GAZE_OBS=OFF builds), so callers can print it unconditionally.
 */
std::string matrixSchemeTable(const MatrixResult &result);

} // namespace gaze
