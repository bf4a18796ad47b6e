/**
 * @file
 * Decode-once trace storage for one batch of simulations (one
 * runCampaign call, one gaze_sim matrix). Every job of a batch that
 * runs a generator-backed workload reads the same immutable record
 * buffer through its own cursor, so the generator runs at most once
 * per workload per batch instead of once per job (and once per core
 * of a homogeneous multi-core job).
 *
 * The store is planned up front: it is built from the workload of
 * every job the batch will run, counts each workload's jobs, and drops
 * a buffer as soon as its last job has released it. Generation stays
 * lazy (the first open() of a workload runs its generator), so a batch
 * whose jobs were all cache hits generates nothing.
 *
 * A store is deliberately batch-scoped, never process-wide: a process
 * that runs several cold batches (the benchmark's cold passes) must
 * regenerate each time, and planned release is what bounds memory.
 */

#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "workloads/suites.hh"

namespace gaze
{

/** Shared, thread-safe, planned trace buffers for one batch of jobs. */
class TraceStore
{
  public:
    /**
     * Plan one job per element of @p jobWorkloads (the workload each
     * job opens; a multi-core homogeneous job is one element).
     * File-backed workloads are not planned: they keep streaming.
     */
    explicit TraceStore(const std::vector<const WorkloadDef *> &jobWorkloads);

    TraceStore(const TraceStore &) = delete;
    TraceStore &operator=(const TraceStore &) = delete;

    /**
     * A read-only cursor over @p w's trace. The first open of a
     * generator-backed workload runs its generator; concurrent opens
     * of the same workload wait for that one generation, and a
     * generator exception reaches every waiter. File-backed workloads
     * return w.open(). Panics on a generator-backed workload with no
     * unreleased planned job.
     */
    std::unique_ptr<TraceSource> open(const WorkloadDef &w);

    /**
     * One planned job of @p w has finished with its cursors; the last
     * one drops the store's buffer. No-op for file-backed workloads.
     */
    void release(const WorkloadDef &w);

    /** Workloads whose buffer is currently held (tests). */
    size_t resident() const;

  private:
    using Buffer = std::shared_ptr<const std::vector<TraceRecord>>;

    struct Entry
    {
        uint32_t jobsLeft = 0;
        bool started = false; ///< an open() has claimed generation
        std::shared_future<Buffer> buffer;
    };

    mutable std::mutex mtx;
    /** Keyed by workloadIdentity(). */
    std::map<std::string, Entry> entries;
};

/**
 * Submission order for a batch whose jobs run on @p threads workers,
 * job i opening *jobWorkloads[i] (jobs of equal workloadIdentity()
 * share a trace). Workloads are taken in first-appearance order, in
 * groups of @p threads, and each group's jobs are interleaved across
 * its workloads (A1 B1 C1 D1 A2 B2 ...): the first jobs of a group
 * generate different traces in parallel instead of waiting on one,
 * and only about two groups' buffers are live at once. Returns a
 * permutation of job indices; the relative order of one workload's
 * jobs is kept.
 */
std::vector<size_t>
interleavedJobOrder(const std::vector<const WorkloadDef *> &jobWorkloads,
                    uint32_t threads);

} // namespace gaze
