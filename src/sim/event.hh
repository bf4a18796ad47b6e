/**
 * @file
 * The wake-hint contract that lets the simulator skip idle cycles.
 *
 * Every clocked component (Core, Cache, Dram) keeps a TickEvent: the
 * earliest cycle at which its tick() could have any effect. The hint
 * is set from full state at the end of every tick and only ever
 * lowered in between, by the external inputs that create work
 * (sendRequest down, recvFill up). Each tick() opens with the due()
 * gate, so a component whose hint lies in the future returns without
 * touching anything.
 *
 * That gives both engines their exactness for free. The polled engine
 * ticks every component every cycle and the gate turns the idle ticks
 * into a compare. The event engine (System's default) ticks the
 * components in the same fixed order and then jumps the clock to the
 * minimum hint: every cycle it skips is one on which every gate would
 * have failed, i.e. one on which the polled engine changes nothing.
 * The two are therefore metrics-bit-identical by construction;
 * test_engine and test_engine_diff assert it.
 *
 * A hint must be exact, not merely safe: the longer a component can
 * prove it will sleep, the more cycles the event engine skips. Each
 * one sleeps until the input that can unblock it arrives — the core
 * on a fill for a full ROB/SQ or a blocked dependent load, a cache on
 * a fill while its queue heads wait on a full MSHR file, DRAM until
 * the first cycle a queued bank is ready within the bus horizon.
 * Per-cycle counters the skipped ticks would have bumped (the core's
 * robFullCycles/frontendStallCycles, the cache's mshrFullStall/
 * pfMshrWait) are added on wake-up and settled by stats().
 */

#pragma once

#include <cstdint>

#include "common/types.hh"

namespace gaze
{

/** "No wake needed": a component with nothing self-scheduled. */
inline constexpr Cycle kNeverWake = ~Cycle(0);

/**
 * One component's wake hint. The component contract:
 *  - `void tick()` opens with `if (!sched.due(now())) return;` and
 *    closes with `sched.tickDone(nextWakeCycle())`;
 *  - `Cycle nextWakeCycle() const` is the earliest future cycle at
 *    which ticking could have any effect given current state
 *    (kNeverWake when only external input can create work);
 *  - every external input calls requestWake() with the first cycle
 *    on which the polled engine could tick the target to any effect.
 */
class TickEvent
{
  public:
    /** True when ticking at @p now_cycle could do work. */
    bool due(Cycle now_cycle) const { return wakeHint <= now_cycle; }

    /**
     * End-of-tick bookkeeping: record the component's freshly
     * computed nextWakeCycle() as the hint the gate tests next, and
     * count the tick (it passed the gate).
     */
    void
    tickDone(Cycle next)
    {
        wakeHint = next;
        ++gatedTicks;
    }

    /**
     * Ensure the component ticks at @p when or earlier. A wake from
     * inside the component's own tick is harmless: the closing
     * tickDone() recomputes the hint from full state anyway.
     */
    void
    requestWake(Cycle when)
    {
        if (when < wakeHint)
            wakeHint = when;
    }

    /** The current hint: the earliest possibly-productive tick cycle. */
    Cycle hint() const { return wakeHint; }

    /** Ticks that passed the gate over the component's lifetime. */
    uint64_t ticks() const { return gatedTicks; }

  private:
    Cycle wakeHint = 0;
    uint64_t gatedTicks = 0;
};

} // namespace gaze
