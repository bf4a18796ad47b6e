/**
 * @file
 * Interval sampler: snapshots every registry counter at exact epoch
 * boundaries (cycle N, 2N, 3N, ...) of *simulated* time, building the
 * --obs-timeline time series (IPC, miss rates, queue occupancies,
 * executed cycles — whatever the registry binds).
 *
 * Exactness without perturbation: the engine calls advanceTo(c)
 * immediately before executing cycle c. Every still-pending boundary
 * b < c lies in a stretch where no cycle after the previously
 * executed one has run — those cycles were idle (skipped or simply
 * not yet reached) — so the counter state *at* b is exactly the
 * current counter state, and the sampler can emit b's row late
 * without ever forcing the engine to wake at b. This is the same
 * lazy-catch-up argument Core::catchUpStallCounters and
 * Cache::catchUpMshrWaits use, which is why sampler-on runs are
 * bitwise identical to sampler-off runs on every engine
 * (test_engine_diff / test_obs assert it).
 *
 * The sampler reads the bound counters raw, without settling: the
 * four lazily accounted stall counters (core robFullCycles and
 * frontendStallCycles, cache mshrFullStall and pfMshrWait) lag by
 * the cycles a sleeping component has not yet accounted. Both
 * engines tick on the same cycles, so the lag is the same on both.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/registry.hh"

namespace gaze
{
namespace obs
{

/** One emitted epoch boundary: registry values at cycle `cycle`. */
struct Sample
{
    Cycle cycle = 0;
    std::vector<uint64_t> values; ///< registry order (name-sorted)
};

/** The rows a finished run hands back to its driver for export. */
struct SampleSeries
{
    uint64_t interval = 0;
    std::vector<std::string> names; ///< column names, sorted
    std::vector<Sample> rows;

    bool empty() const { return rows.empty(); }

    /** "cycle,<name>,..." header plus one row per boundary. */
    std::string toCsv() const;

    /** {"interval":N,"counters":[...],"samples":[[cycle,v...],...]} */
    void exportJson(JsonWriter &j) const;
};

class IntervalSampler
{
  public:
    /**
     * @param registry sealed registry to snapshot (not owned).
     * @param interval epoch length in cycles (> 0).
     */
    IntervalSampler(const Registry *registry, uint64_t interval);

    /**
     * Attach point: skip every boundary at or before @p cycle. The
     * runner attaches the sampler after warmup + resetStats, so the
     * series must begin at the first boundary of *measured* time, not
     * replay warmup-era boundaries with freshly-reset counters.
     */
    void
    startAt(Cycle cycle)
    {
        nextBoundary = (cycle / interval + 1) * interval;
    }

    /**
     * The engine is about to execute cycle @p cycle: emit every
     * pending boundary strictly before it.
     */
    void
    advanceTo(Cycle cycle)
    {
        while (nextBoundary < cycle)
            emitBoundary();
    }

    /** Run ended with the clock at @p final_cycle: flush boundaries. */
    void
    finish(Cycle final_cycle)
    {
        while (nextBoundary <= final_cycle)
            emitBoundary();
    }

    const SampleSeries &series() const { return out; }
    SampleSeries takeSeries() { return std::move(out); }

  private:
    void emitBoundary();

    const Registry *reg;
    uint64_t interval;
    Cycle nextBoundary;
    SampleSeries out;
};

} // namespace obs
} // namespace gaze
