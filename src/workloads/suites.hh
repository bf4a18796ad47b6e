/**
 * @file
 * The workload suite registry: named synthetic traces standing in for
 * the paper's SPEC06 / SPEC17 / Ligra / PARSEC / CloudSuite / GAP /
 * QMM trace sets (see DESIGN.md for the substitution rationale). Each
 * entry knows how to (re)generate its trace deterministically.
 *
 * Trace lengths honor the GAZE_SIM_SCALE environment variable so the
 * benches can be scaled up or down without recompiling.
 */

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/trace.hh"

namespace gaze
{

/**
 * A named workload belonging to a suite. A workload resolves to a
 * TraceSource one of two ways: regenerated in memory by @p make
 * (the default), or replayed from a recorded .gzt file when
 * @p traceFile is set (gaze_sim --trace-dir, see tracing/trace_io.hh).
 */
struct WorkloadDef
{
    WorkloadDef() = default;

    WorkloadDef(std::string name_, std::string suite_,
                std::function<VectorTrace()> make_)
        : name(std::move(name_)), suite(std::move(suite_)),
          make(std::move(make_))
    {
    }

    std::string name;  ///< e.g. "fotonik3d_s"
    std::string suite; ///< "spec06" | "spec17" | "ligra" | "parsec"
                       ///< | "cloud" | "gap" | "qmm_server" | "qmm_client"
    std::function<VectorTrace()> make;

    /** When non-empty, open() replays this .gzt instead of make(). */
    std::string traceFile;

    /**
     * The trace this workload runs from: a FileTrace streaming
     * @p traceFile when set, else a private VectorTrace from a fresh
     * make() call — every open() regenerates. Runs that open a
     * workload more than once (a campaign, a gaze_sim matrix, the
     * cores of a homogeneous mix) read one shared buffer through a
     * TraceStore instead (workloads/trace_store.hh).
     */
    std::unique_ptr<TraceSource> open() const;
};

/** Global simulation scale from GAZE_SIM_SCALE (default 1.0). */
double simScale();

/** Baseline record count for one trace, after scaling. */
uint64_t scaledRecords(uint64_t base = 600'000);

/** Every registered workload. */
const std::vector<WorkloadDef> &allWorkloads();

/** Workloads of one suite ("qmm" matches both server and client). */
std::vector<WorkloadDef> suiteWorkloads(const std::string &suite);

/** Find a workload by exact name (fatal if missing). */
const WorkloadDef &findWorkload(const std::string &name);

/**
 * Rebind each workload to "<dir>/<name>.gzt". Every file must exist
 * with a readable header (fatal otherwise, naming the offender) so a
 * bad --trace-dir fails before any simulation time is spent.
 */
std::vector<WorkloadDef> withTraceDir(std::vector<WorkloadDef> workloads,
                                      const std::string &dir);

/**
 * Canonical identity string for result-cache keys. A generator
 * workload is its registry name plus the generation scale (the only
 * inputs its deterministic trace depends on); a file-backed workload
 * is the name plus the recorded trace's header key (version, record
 * count, payload checksum — see traceCacheKey), so two different
 * recordings of the same workload never share cached results. Fatal
 * on an unreadable trace file.
 */
std::string workloadIdentity(const WorkloadDef &w);

/** The five main-evaluation suites of Fig. 6-8. */
const std::vector<std::string> &mainSuites();

} // namespace gaze
