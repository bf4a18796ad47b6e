/**
 * @file
 * Shared helpers for the bench binaries: standard header printing
 * and the multi-core prefetcher list. All benches honor
 * GAZE_SIM_SCALE for trace/interval scaling.
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/table.hh"
#include "workloads/suites.hh"

namespace gaze::bench
{

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *what)
{
    std::printf("==================================================="
                "=========\n");
    std::printf("%s — %s\n", experiment, what);
    std::printf("simulation scale: %.2fx (GAZE_SIM_SCALE), "
                "warm/sim per run: %llu/%llu instructions\n",
                simScale(),
                static_cast<unsigned long long>(RunConfig{}.effectiveWarmup()),
                static_cast<unsigned long long>(RunConfig{}.effectiveSim()));
    std::printf("==================================================="
                "=========\n\n");
}

/** The six multi-core prefetchers of Fig. 14. */
inline std::vector<std::string>
fig14Prefetchers()
{
    return {"spp_ppf", "vberti", "bingo", "dspatch", "pmp", "gaze"};
}

} // namespace gaze::bench
