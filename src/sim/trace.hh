/**
 * @file
 * Trace record format consumed by the core model. The synthetic workload
 * generators in src/workloads produce these; the format deliberately
 * mirrors what matters in a ChampSim data-access trace: a PC, an optional
 * memory operand, and front-end stall events (standing in for branch
 * mispredictions / instruction misses, see DESIGN.md).
 *
 * Sources come in three flavors: the in-memory VectorTrace below
 * (what the generators emit), the shared-buffer cursors of
 * workloads/trace_store.hh, and the streaming FileTrace in
 * tracing/trace_io.hh, which replays a recorded .gzt file — all are
 * interchangeable behind TraceSource, and a recorded replay is
 * bit-identical to the generator run it was recorded from.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace gaze
{

/** Instruction class in a trace. */
enum class TraceOp : uint8_t
{
    NonMem,        ///< ALU-like instruction, completes immediately
    Load,          ///< demand load from vaddr
    DependentLoad, ///< load that cannot issue until prior loads finish
                   ///< (serializes pointer chasing)
    Store,         ///< store to vaddr (RFO at retire)
    Stall          ///< front-end stall (mispredict/L1I miss stand-in)
};

/** One trace record = one instruction. */
struct TraceRecord
{
    PC pc = 0;
    Addr vaddr = 0;
    TraceOp op = TraceOp::NonMem;
    uint16_t stallCycles = 0;

    /** Field-wise equality (record/replay round-trip checks). */
    bool
    operator==(const TraceRecord &o) const
    {
        return pc == o.pc && vaddr == o.vaddr && op == o.op
               && stallCycles == o.stallCycles;
    }

    bool operator!=(const TraceRecord &o) const { return !(*this == o); }
};

/**
 * Pull interface the core reads from. Implementations must support
 * reset() so a finished trace replays from the start (the paper replays
 * traces until every core has simulated enough instructions).
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Fetch the next record; false at end-of-trace. */
    virtual bool next(TraceRecord &out) = 0;

    /** Rewind to the beginning. */
    virtual void reset() = 0;
};

/**
 * An in-memory trace that owns its records: what the generators emit
 * and what WorkloadDef::open() hands out. Its cursor and its records
 * are one object, so every VectorTrace is a private copy; the
 * TraceStore (workloads/trace_store.hh) instead moves a generated
 * VectorTrace's records into one immutable buffer that any number of
 * read-only cursors share.
 */
class VectorTrace : public TraceSource
{
  public:
    VectorTrace() = default;
    explicit VectorTrace(std::vector<TraceRecord> recs)
        : records(std::move(recs))
    {
    }

    bool
    next(TraceRecord &out) override
    {
        if (pos >= records.size())
            return false;
        out = records[pos++];
        return true;
    }

    void reset() override { pos = 0; }

    size_t size() const { return records.size(); }
    std::vector<TraceRecord> &data() { return records; }
    const std::vector<TraceRecord> &data() const { return records; }

  private:
    std::vector<TraceRecord> records;
    size_t pos = 0;
};

} // namespace gaze
