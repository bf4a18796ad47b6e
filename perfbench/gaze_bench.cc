/**
 * @file
 * gaze_bench: the repository benchmark. Runs one named workload
 * through the simulator's public entry points in a closed loop (a
 * worker takes its next cell only when its previous one finished),
 * checks every cell's simulated summary against a pinned reference,
 * and prints end-to-end metrics (--trace 0) or per-layer metrics from
 * a traced pass (--trace 1). perfbench/run.py builds and drives it;
 * perfbench/README.md explains the workloads and metrics.
 *
 * Spans are recorded here, around calls into each module's public
 * functions; nothing inside the simulator is instrumented.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/engine.hh"
#include "campaign/json.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "harness/cell_key.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "obs/obs.hh"
#include "prefetchers/factory.hh"
#include "sim/system.hh"
#include "workloads/generators.hh"
#include "workloads/graph.hh"
#include "workloads/suites.hh"

namespace gaze::bench
{
namespace
{

/** GAZE_SIM_SCALE for fig06_cold: it is part of every cell key. */
constexpr const char *kFig06Scale = "0.05";
constexpr const char *kFig06Spec = "examples/campaign_fig06.json";
/** Pin key of fig06_cold: its inputs come from the registry. */
constexpr const char *kRegistrySeed = "registry";
/** Warm passes after each cold pass: at least this many on each CPU
    the round visits, for at least kWarmSeconds. */
constexpr int kWarmPasses = 5;
constexpr double kWarmSeconds = 0.02;

/** The nine schemes of Fig. 6, in the spec's order. */
const std::vector<std::string> kSchemes = {
    "ip_stride", "spp_ppf", "ipcp", "vberti", "sms",
    "bingo",     "dspatch", "pmp",  "gaze"};

// ------------------------------------------------------------ clocks

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
secondsSince(int64_t start_ns)
{
    return double(nowNs() - start_ns) * 1e-9;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return double(t.tv_sec) + double(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** The CPUs this process may run on, as found on first use. */
const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> v;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    v.push_back(c);
        if (v.empty())
            v.push_back(0);
        return v;
    }();
    return cpus;
}

/**
 * Pin the calling thread to the @p k-th allowed CPU (mod their count),
 * or back to all of them when @p k is negative. Host contention on a
 * shared machine differs from CPU to CPU and drifts over seconds, so
 * one-thread work visits every CPU in turn (see README.md).
 */
void
pinCpu(int k)
{
    const std::vector<int> &cpus = allowedCpus();
    cpu_set_t set;
    CPU_ZERO(&set);
    if (k >= 0) {
        CPU_SET(cpus[size_t(k) % cpus.size()], &set);
    } else {
        for (int c : cpus)
            CPU_SET(c, &set);
    }
    sched_setaffinity(0, sizeof(set), &set);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in (0, 1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = size_t(std::ceil(p * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// ------------------------------------------------------------ refusal

/** Refuse loudly: a skipped measurement must never look like one. */
[[noreturn]] void
unmeasured(const std::string &why)
{
    std::printf("UNMEASURED: %s\n", why.c_str());
    std::fflush(stdout);
    std::exit(3);
}

void
refuseUnfitBuild()
{
    if (GAZE_OBS_ON)
        unmeasured("GAZE_OBS is compiled in; configure with "
                   "-DGAZE_OBS=OFF");
    const std::string type = GAZE_BENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        unmeasured("unoptimised build (CMAKE_BUILD_TYPE='" + type
                   + "'); use Release");
#ifndef __OPTIMIZE__
    unmeasured("compiled without optimisation");
#endif
    const std::string san = GAZE_BENCH_SANITIZE;
    if (!san.empty() && san != "OFF")
        unmeasured("sanitizer build (GAZE_SANITIZE=" + san + ")");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    unmeasured("sanitizer build");
#endif
}

// ------------------------------------------------------------ pins

/** What a cell produced, as far as correctness checking needs. */
struct CellOutcome
{
    std::string label;
    uint64_t digest = 0;
    bool capped = false;  ///< a core missed its instruction target
    bool crashed = false; ///< the cell threw
    double seconds = 0.0; ///< wall time of the cell
};

std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * The simulated summary a speed-only change must not move: IPC,
 * per-core instructions and cycles (when the caller has them — a
 * campaign cell record keeps only IPC), prefetches
 * issued/filled/useful/late, LLC demand misses and total cycles.
 * Engine-specific counters (events, executed/skipped split) are left
 * out so event and polled runs share one digest.
 */
std::string
summaryText(const RunSummary &s, const std::vector<CoreResult> *cores)
{
    std::string t = "ipc=" + exact(s.ipc);
    if (cores) {
        for (size_t c = 0; c < cores->size(); ++c)
            t += ";core" + std::to_string(c) + "="
                 + std::to_string((*cores)[c].instructions) + "/"
                 + std::to_string((*cores)[c].cycles);
    }
    t += ";pf=" + std::to_string(s.pfIssued) + "/"
         + std::to_string(s.pfFilled) + "/" + std::to_string(s.pfUseful)
         + "/" + std::to_string(s.pfLate);
    t += ";llc_miss=" + std::to_string(s.llcDemandMiss);
    t += ";cycles=" + std::to_string(s.cyclesExecuted + s.cyclesSkipped);
    return t;
}

uint64_t
summaryDigest(const RunSummary &s, const std::vector<CoreResult> *cores)
{
    return cellHash(summaryText(s, cores));
}

using DigestMap = std::map<std::string, uint64_t>;

/** The pinned reference of one (workload, seed). */
struct Pin
{
    bool found = false;
    DigestMap cells;
    uint64_t instructions = 0; ///< retired per pass, warmup included
};

Pin
loadPin(const std::string &path, const std::string &workload,
        const std::string &seed_key)
{
    Pin pin;
    if (!std::filesystem::exists(path))
        return pin;
    JsonValue root = parseJsonFile(path);
    const JsonValue *wl = root.find(workload);
    const JsonValue *entry = wl ? wl->find(seed_key) : nullptr;
    if (!entry)
        return pin;
    pin.found = true;
    pin.instructions = entry->find("instructions")->asCount("instructions");
    for (const auto &[label, hex] : entry->find("cells")->members())
        pin.cells[label] = std::stoull(hex.asString(), nullptr, 16);
    return pin;
}

/**
 * Count the outcomes that crashed, hit the cycle cap or differ from
 * @p ref, appending one line per failure (naming the cell) to @p why.
 */
uint64_t
checkCells(const DigestMap &ref, const std::vector<CellOutcome> &got,
           const char *against, std::vector<std::string> *why)
{
    uint64_t failed = 0;
    for (const auto &o : got) {
        std::string reason;
        auto it = ref.find(o.label);
        if (o.crashed)
            reason = "crashed";
        else if (o.capped)
            reason = "hit the cycle cap";
        else if (it == ref.end())
            reason = std::string("has no ") + against + " entry";
        else if (it->second != o.digest)
            reason = "digest " + cellHashHex(o.digest) + " != " + against
                     + " " + cellHashHex(it->second);
        if (reason.empty())
            continue;
        ++failed;
        why->push_back(o.label + ": " + reason);
    }
    return failed;
}

DigestMap
digestsOf(const std::vector<CellOutcome> &cells)
{
    DigestMap m;
    for (const auto &o : cells)
        m[o.label] = o.digest;
    return m;
}

// ------------------------------------------------------------ spans

/**
 * In-memory span recorder: name, start, end, parent and cell id.
 * Spans are few (a handful per cell), so one mutex is enough; they
 * are written out when the run ends.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name = "";
        int64_t start = 0;
        int64_t end = 0;
        int parent = -1;
        int cell = -1;
    };

    int
    open(const char *name, int cell, int parent)
    {
        std::lock_guard<std::mutex> lock(mtx);
        spans.push_back({name, nowNs(), 0, parent, cell});
        return int(spans.size()) - 1;
    }

    void
    close(int id)
    {
        int64_t t = nowNs();
        std::lock_guard<std::mutex> lock(mtx);
        spans[size_t(id)].end = t;
    }

    /** Durations (s) of every span called @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> d;
        for (const auto &s : spans)
            if (name == s.name)
                d.push_back(double(s.end - s.start) * 1e-9);
        return d;
    }

    double
    total(const std::string &name) const
    {
        double t = 0.0;
        for (double d : durations(name))
            t += d;
        return t;
    }

    /**
     * Summed self time (s) of spans called @p name: each span's
     * duration minus the union of its children's intervals.
     */
    double
    selfTotal(const std::string &name) const
    {
        std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(
            spans.size());
        for (const auto &s : spans)
            if (s.parent >= 0)
                kids[size_t(s.parent)].push_back({s.start, s.end});
        double self = 0.0;
        for (size_t i = 0; i < spans.size(); ++i) {
            if (name != spans[i].name)
                continue;
            auto &iv = kids[i];
            std::sort(iv.begin(), iv.end());
            int64_t covered = 0, curB = 0, curE = -1;
            for (auto [b, e] : iv) {
                b = std::max(b, spans[i].start);
                e = std::min(e, spans[i].end);
                if (e <= b)
                    continue;
                if (b > curE) {
                    covered += curE > curB ? curE - curB : 0;
                    curB = b;
                    curE = e;
                } else {
                    curE = std::max(curE, e);
                }
            }
            covered += curE > curB ? curE - curB : 0;
            self += double(spans[i].end - spans[i].start - covered) * 1e-9;
        }
        return self;
    }

    void
    write(const std::string &path, int64_t epoch) const
    {
        std::ofstream out(path);
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << "{\"id\":" << i << ",\"name\":\"" << s.name
                << "\",\"start_ns\":" << s.start - epoch
                << ",\"end_ns\":" << s.end - epoch
                << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
                << "}\n";
        }
    }

  private:
    mutable std::mutex mtx;
    std::vector<Span> spans;
};

/** The innermost open span on this thread (the default parent). */
thread_local int tlsOpenSpan = -1;

/** RAII span; a null tracer makes it free. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, const char *name, int cell = -1,
               int parent = -2)
        : tracer(t), prev(tlsOpenSpan)
    {
        if (!tracer)
            return;
        id = tracer->open(name, cell, parent == -2 ? tlsOpenSpan : parent);
        tlsOpenSpan = id;
    }

    ~ScopedSpan()
    {
        if (!tracer)
            return;
        tracer->close(id);
        tlsOpenSpan = prev;
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int spanId() const { return id; }

  private:
    Tracer *tracer;
    int prev;
    int id = -1;
};

// ------------------------------------------------------------ layer counts

/** Host time in one scheme's hooks (per cell: single-threaded). */
struct HookClock
{
    uint64_t calls = 0;
    int64_t ns = 0;
};

/**
 * Forwarding prefetcher that times the hooks of the scheme it wraps.
 * tick() is timed only while the scheme reports pending work (the
 * engines call it on every cache tick otherwise, where it is a no-op);
 * untimed ticks still forward, so simulated behaviour is unchanged.
 */
class TimedPrefetcher final : public Prefetcher
{
  public:
    TimedPrefetcher(std::unique_ptr<Prefetcher> scheme, HookClock *clock)
        : inner(std::move(scheme)), acc(clock)
    {
    }

    std::string name() const override { return inner->name(); }

    void
    attach(const PrefetcherContext &ctx) override
    {
        Prefetcher::attach(ctx);
        inner->attach(ctx);
    }

    void
    onAccess(const DemandAccess &a) override
    {
        int64_t t = nowNs();
        inner->onAccess(a);
        charge(t);
    }

    void
    onFill(const FillEvent &f) override
    {
        int64_t t = nowNs();
        inner->onFill(f);
        charge(t);
    }

    void
    onEvict(Addr paddr, Addr vaddr) override
    {
        int64_t t = nowNs();
        inner->onEvict(paddr, vaddr);
        charge(t);
    }

    void
    tick() override
    {
        if (!inner->busy()) {
            inner->tick();
            return;
        }
        int64_t t = nowNs();
        inner->tick();
        charge(t);
    }

    bool busy() const override { return inner->busy(); }
    uint64_t storageBits() const override { return inner->storageBits(); }

  private:
    void
    charge(int64_t start)
    {
        ++acc->calls;
        acc->ns += nowNs() - start;
    }

    std::unique_ptr<Prefetcher> inner;
    HookClock *acc;
};

/** Simulated and host counts of one scheme over a traced pass. */
struct SchemeTotals
{
    HookClock hooks;
    uint64_t issued = 0, filled = 0, useful = 0, late = 0;
    uint64_t droppedFull = 0;
    std::vector<double> speedups;
};

/** Counts the traced pass gathers at the module boundaries. */
struct LayerTotals
{
    std::mutex mtx;
    uint64_t genRecords = 0;
    uint64_t cycles = 0, cyclesExecuted = 0, events = 0;
    uint64_t measuredInstr = 0, channelCycles = 0;
    uint64_t l1dMiss = 0, llcMiss = 0;
    uint64_t dramBusy = 0, rowHits = 0, rowMisses = 0;
    uint64_t robFull = 0, coreCycles = 0;
    uint64_t baselineCalls = 0, baselineComputes = 0;
    std::map<std::string, SchemeTotals> schemes;
};

std::string
schemeOf(const PfSpec &pf)
{
    const std::string &s = pf.l1 != "none" ? pf.l1 : pf.l2;
    return s.substr(0, s.find(':'));
}

// ------------------------------------------------------------ workloads

/** One simulation of the batch: a baseline or a prefetcher cell. */
struct BenchJob
{
    std::string label;
    std::string key;
    uint64_t hash = 0;
    bool isBaseline = false;
    std::vector<WorkloadDef> mix;
    PfSpec pf;
    std::string baselineKey;
};

/** A set-up workload: the fixed batch of cells one pass runs. */
struct Workload
{
    bool fig06 = false;
    RunConfig run;
    uint32_t workers = 1;
    Campaign campaign; ///< fig06_cold only
    std::vector<BenchJob> jobs;
};

/** Seed for input @p index of a run seeded with @p seed (splitmix64). */
uint64_t
inputSeed(uint64_t seed, uint64_t index)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** One seeded input: the generator parameters stand in for a paper
    workload class (see README.md). */
struct SeededInput
{
    const char *name;
    VectorTrace (*gen)(uint64_t seed);
};

constexpr uint64_t kDenseRecords = 150'000;
constexpr uint64_t kChaseRecords = 150'000;

VectorTrace
genLeslie(uint64_t seed)
{
    StreamParams p;
    p.seed = seed;
    p.records = kDenseRecords;
    p.streams = 3;
    return genStream(p);
}

VectorTrace
genLbm(uint64_t seed)
{
    StreamParams p;
    p.seed = seed;
    p.records = kDenseRecords;
    p.streams = 4;
    p.storeFraction = 0.45;
    p.gapNonMem = 2;
    return genStream(p);
}

VectorTrace
genCassandra(uint64_t seed)
{
    TemplateParams p;
    p.seed = seed;
    p.records = kDenseRecords;
    p.numTemplates = 24;
    p.conflictDegree = 4;
    p.blocksPerTemplate = 7;
    p.sharedPc = false;
    p.revisitFraction = 0.55;
    p.jitter = 0.15;
    p.numPages = 16384;
    p.pcVariants = 40;
    p.gapNonMem = 8;
    return genTemplates(p);
}

VectorTrace
genBfs17(uint64_t seed)
{
    GraphTraceParams p;
    p.seed = seed;
    p.records = kDenseRecords;
    p.vertices = 1 << 17;
    p.avgDegree = 12.0;
    p.gapNonMem = 3;
    return genBfs(p, false);
}

VectorTrace
chase(uint64_t seed, uint64_t nodes, double noise)
{
    ChaseParams p;
    p.seed = seed;
    p.records = kChaseRecords;
    p.nodes = nodes;
    p.noiseFraction = noise;
    return genPointerChase(p);
}

VectorTrace genMcf(uint64_t seed) { return chase(seed, 1 << 18, 0.2); }
VectorTrace genCanneal(uint64_t seed) { return chase(seed, 1 << 18, 0.3); }
VectorTrace genOmnetpp(uint64_t seed) { return chase(seed, 1 << 16, 0.4); }

/** A seeded workload: its inputs, and mixes as indices into them. */
struct SeededWorkload
{
    std::vector<SeededInput> inputs;
    std::vector<std::vector<size_t>> mixes;
    uint64_t warmup;
    uint64_t sim;
};

const std::map<std::string, SeededWorkload> &
seededWorkloads()
{
    static const std::map<std::string, SeededWorkload> table = {
        {"dense_1c",
         {{{"leslie3d", genLeslie},
           {"cassandra", genCassandra},
           {"bfs17", genBfs17}},
          {{0}, {1}, {2}},
          100'000,
          200'000}},
        {"sparse_1c",
         {{{"mcf", genMcf}, {"canneal", genCanneal}, {"omnetpp", genOmnetpp}},
          {{0}, {1}, {2}},
          50'000,
          100'000}},
        {"mix_4c",
         {{{"leslie3d", genLeslie},
           {"bfs17", genBfs17},
           {"cassandra", genCassandra},
           {"lbm", genLbm},
           {"mcf", genMcf},
           {"canneal", genCanneal},
           {"omnetpp", genOmnetpp}},
          {{0, 1, 4, 5}, {2, 3, 6, 4}},
          2'500,
          5'000}},
    };
    return table;
}

void
addJob(Workload &wl, const std::vector<WorkloadDef> &mix, const PfSpec &pf,
       const std::string &mix_name)
{
    BenchJob job;
    job.isBaseline = pf.isNone();
    job.label = (job.isBaseline ? std::string("none") : pf.label()) + " x "
                + mix_name;
    job.mix = mix;
    job.pf = pf;
    job.key = canonicalCellText(wl.run, pf, mix);
    job.hash = cellHash(job.key);
    job.baselineKey = canonicalCellText(wl.run, PfSpec{}, mix);
    wl.jobs.push_back(std::move(job));
}

/**
 * Set up @p name: load and expand the Fig. 6 campaign, or generate
 * the seeded inputs and build the cell list. Traced when @p tr is set.
 */
Workload
setupWorkload(const std::string &name, uint64_t seed, uint32_t workers,
              Tracer *tr, LayerTotals *tot)
{
    Workload wl;
    if (name == "fig06_cold") {
        ScopedSpan s(tr, "campaign.expand");
        wl.fig06 = true;
        wl.workers = workers;
        wl.campaign = loadCampaign(kFig06Spec);
        wl.run = wl.campaign.spec.run;
        std::map<uint64_t, std::string> baselineOf;
        for (const auto &c : wl.campaign.cells)
            baselineOf[c.hash] = c.baselineKey;
        for (const auto &j : expandCampaignJobs(wl.campaign)) {
            BenchJob job;
            job.label = j.label;
            job.key = j.key;
            job.hash = j.hash;
            job.isBaseline = j.isBaseline;
            job.mix.assign(j.cores, j.workload);
            job.pf = j.pf;
            job.baselineKey = j.isBaseline ? j.key : baselineOf[j.hash];
            wl.jobs.push_back(std::move(job));
        }
        return wl;
    }

    auto it = seededWorkloads().find(name);
    if (it == seededWorkloads().end())
        unmeasured("unknown workload '" + name + "'");
    const SeededWorkload &sw = it->second;
    wl.run.warmupInstr = sw.warmup;
    wl.run.simInstr = sw.sim;

    std::vector<WorkloadDef> inputs;
    for (size_t i = 0; i < sw.inputs.size(); ++i) {
        const SeededInput &in = sw.inputs[i];
        std::shared_ptr<const VectorTrace> trace;
        {
            ScopedSpan s(tr, "workloads");
            trace = std::make_shared<const VectorTrace>(
                in.gen(inputSeed(seed, i)));
        }
        if (tot)
            tot->genRecords += trace->size();
        inputs.emplace_back(name + "." + in.name + ".s"
                                + std::to_string(seed),
                            "perfbench", [trace] { return *trace; });
    }

    ScopedSpan s(tr, "campaign.expand");
    for (const PfSpec &pf : {PfSpec{}, pfSpecAt("gaze", "l1")}) {
        for (const auto &m : sw.mixes) {
            std::vector<WorkloadDef> mix;
            std::string mixName;
            for (size_t i : m) {
                mix.push_back(inputs[i]);
                if (!mixName.empty())
                    mixName += '+';
                mixName += sw.inputs[i].name;
            }
            addJob(wl, mix, pf, mixName);
        }
    }
    return wl;
}

// ------------------------------------------------------------ passes

/** One pass over the batch. */
struct PassResult
{
    double wall = 0.0;
    double cpu = 0.0;
    uint64_t instructions = 0; ///< 0 when the entry point hides them
    std::vector<CellOutcome> cells;
};

bool
isCapped(const RunConfig &run, const RunResult &r)
{
    for (const auto &c : r.cores)
        if (c.instructions < run.effectiveSim())
            return true;
    return false;
}

CellOutcome
outcomeOf(const Workload &wl, const BenchJob &job, const RunResult &r,
          double seconds)
{
    CellOutcome o;
    o.label = job.label;
    // Campaign records keep only IPC, so fig06 digests leave the
    // per-core counts out on every path.
    o.digest = summaryDigest(summarize(r), wl.fig06 ? nullptr : &r.cores);
    o.capped = isCapped(wl.run, r);
    o.seconds = seconds;
    return o;
}

/**
 * The untraced pass, through the entry point users call: runCampaign
 * for fig06_cold, Runner::runMix on one thread for the seeded
 * workloads (each record stored to @p cache for the warm pass).
 */
PassResult
untracedPass(const Workload &wl, ResultCache &cache)
{
    PassResult p;
    double cpu0 = cpuSeconds();
    int64_t t0 = nowNs();
    if (wl.fig06) {
        std::mutex mtx;
        CampaignRunOptions opt;
        opt.threads = wl.workers;
        opt.verbose = false;
        opt.onCell = [&](const CampaignJob &job, const CellRecord &rec) {
            CellOutcome o;
            o.label = job.label;
            o.digest = summaryDigest(rec.summary, nullptr);
            o.seconds = rec.seconds;
            std::lock_guard<std::mutex> lock(mtx);
            p.cells.push_back(std::move(o));
        };
        CampaignRunStats st = runCampaign(wl.campaign, cache, opt);
        if (st.executed != wl.jobs.size())
            unmeasured("cold pass simulated " + std::to_string(st.executed)
                       + " of " + std::to_string(wl.jobs.size())
                       + " jobs: the cache was not empty");
    } else {
        Runner runner(wl.run);
        for (const BenchJob &job : wl.jobs) {
            int64_t c0 = nowNs();
            try {
                RunResult r = runner.runMix(job.mix, job.pf);
                double secs = secondsSince(c0);
                cache.store(job.hash, {job.key, summarize(r), secs});
                p.instructions += r.instructionsRetired;
                p.cells.push_back(outcomeOf(wl, job, r, secs));
            } catch (const std::exception &) {
                CellOutcome o;
                o.label = job.label;
                o.crashed = true;
                p.cells.push_back(o);
            }
        }
    }
    p.wall = secondsSince(t0);
    p.cpu = cpuSeconds() - cpu0;
    return p;
}

/**
 * Runner::execute rebuilt from public pieces, so the benchmark can
 * wrap prefetchers and put spans around each module call. Must
 * reproduce Runner's results exactly (the traced run checks it).
 */
RunResult
simulateCell(const RunConfig &run, const BenchJob &job, const PfSpec &pf,
             Tracer *tr, int cell, LayerTotals *tot)
{
    ScopedSpan harness(tr, "harness", cell);
    SystemConfig cfg = run.system;
    cfg.numCores = uint32_t(job.mix.size());
    System sys(cfg);

    std::vector<std::unique_ptr<TraceSource>> traces;
    uint64_t records = 0;
    for (const auto &w : job.mix) {
        ScopedSpan s(tr, "workloads", cell);
        traces.push_back(w.open());
        if (auto *v = dynamic_cast<VectorTrace *>(traces.back().get()))
            records += v->size();
    }
    for (uint32_t c = 0; c < sys.numCores(); ++c)
        sys.setTrace(c, traces[c].get());

    HookClock hooks;
    auto make = [&](const std::string &spec) -> std::unique_ptr<Prefetcher> {
        auto p = makePrefetcher(spec);
        if (!p || !tot)
            return p;
        return std::make_unique<TimedPrefetcher>(std::move(p), &hooks);
    };
    for (uint32_t c = 0; c < sys.numCores(); ++c) {
        sys.setL1Prefetcher(c, make(pf.l1));
        sys.setL2Prefetcher(c, make(pf.l2));
    }

    std::vector<CoreResult> cores;
    Cycle measureStart = 0;
    {
        ScopedSpan s(tr, "sim", cell);
        sys.run(run.effectiveWarmup());
        sys.resetStats();
        measureStart = sys.cycle();
        cores = sys.simulate(run.effectiveSim());
    }
    RunResult r = collectResult(sys, std::move(cores));
    if (!tot)
        return r;

    std::lock_guard<std::mutex> lock(tot->mtx);
    tot->genRecords += records;
    tot->cycles += r.engine.cyclesTotal;
    tot->cyclesExecuted += r.engine.cyclesExecuted;
    tot->events += r.engine.eventsDispatched;
    // Measured interval: every core keeps running until the last one
    // reaches its target, so rates use the whole interval.
    const uint64_t interval = sys.cycle() - measureStart;
    for (uint32_t c = 0; c < sys.numCores(); ++c) {
        tot->measuredInstr += sys.core(c).stats().instructions;
        tot->robFull += sys.core(c).stats().robFullCycles;
    }
    tot->coreCycles += interval * sys.numCores();
    tot->channelCycles += interval * sys.dram().params().channels;
    tot->l1dMiss += r.l1d.loadMiss + r.l1d.rfoMiss;
    tot->llcMiss += r.llc.demandMiss();
    tot->dramBusy += r.dram.busBusyCycles;
    tot->rowHits += r.dram.rowHits;
    tot->rowMisses += r.dram.rowMisses;
    if (!pf.isNone()) {
        SchemeTotals &st = tot->schemes[schemeOf(pf)];
        st.hooks.calls += hooks.calls;
        st.hooks.ns += hooks.ns;
        st.issued += r.l1d.pfIssued + r.l2.pfIssued;
        st.filled += r.l1d.pfFilled + r.l2.pfFilled;
        st.useful += r.l1d.pfUseful + r.l2.pfUseful;
        st.late += r.l1d.pfLate + r.l2.pfLate;
        st.droppedFull += r.l1d.pfDroppedFull + r.l2.pfDroppedFull;
    }
    return r;
}

/**
 * The building-block pass: expandCampaignJobs' order (or the seeded
 * cell list) on wl.workers threads in a closed loop, simulated by
 * simulateCell, baselines memoized in a BaselineCache, each record
 * stored to @p cache. Traced when @p tr is set; @p engine overrides
 * the default engine (the polled reference pass).
 */
PassResult
blockPass(const Workload &wl, ResultCache &cache, EngineKind engine,
          Tracer *tr, LayerTotals *tot, BaselineCache *baselines)
{
    RunConfig run = wl.run;
    run.system.engine = engine;
    PassResult p;
    p.cells.resize(wl.jobs.size());
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> instructions{0};
    double cpu0 = cpuSeconds();
    int64_t t0 = nowNs();
    ScopedSpan pass(tr, "campaign.pass");
    auto worker = [&] {
        for (size_t i; (i = next.fetch_add(1)) < wl.jobs.size();) {
            const BenchJob &job = wl.jobs[i];
            int cell = int(i);
            ScopedSpan js(tr, "campaign.job", cell, pass.spanId());
            int64_t c0 = nowNs();
            try {
                auto sim = [&, &job = job] {
                    return simulateCell(run, job, job.pf, tr, cell, tot);
                };
                RunResult r;
                if (job.isBaseline) {
                    if (tot) {
                        std::lock_guard<std::mutex> l(tot->mtx);
                        ++tot->baselineCalls;
                    }
                    r = baselines->getOrCompute(job.key, [&] {
                        if (tot) {
                            std::lock_guard<std::mutex> l(tot->mtx);
                            ++tot->baselineComputes;
                        }
                        return sim();
                    });
                } else {
                    r = sim();
                }
                double secs = secondsSince(c0);
                instructions += r.instructionsRetired;
                {
                    ScopedSpan s(tr, "campaign.store", cell);
                    cache.store(job.hash, {job.key, summarize(r), secs});
                }
                p.cells[i] = outcomeOf(wl, job, r, secs);
            } catch (const std::exception &) {
                p.cells[i].label = job.label;
                p.cells[i].crashed = true;
            }
        }
    };
    {
        std::vector<std::thread> pool;
        for (uint32_t w = 1; w < wl.workers; ++w)
            pool.emplace_back(worker);
        worker();
        for (auto &t : pool)
            t.join();
    }
    p.wall = secondsSince(t0);
    p.cpu = cpuSeconds() - cpu0;
    p.instructions = instructions.load();
    return p;
}

/** Look every job up in @p cache; a miss means the pass re-simulates. */
std::vector<CellRecord>
lookupAll(const Workload &wl, const ResultCache &cache, Tracer *tr)
{
    std::vector<CellRecord> recs(wl.jobs.size());
    for (size_t i = 0; i < wl.jobs.size(); ++i) {
        ScopedSpan s(tr, "campaign.lookup", int(i));
        if (!cache.lookup(wl.jobs[i].hash, wl.jobs[i].key, &recs[i]))
            unmeasured("warm pass would re-simulate '" + wl.jobs[i].label
                       + "': it is missing from the cache");
    }
    return recs;
}

/** Speedup of every prefetcher cell over its baseline, from records. */
std::vector<double>
speedupsFromRecords(const Workload &wl, const std::vector<CellRecord> &recs)
{
    std::map<std::string, const RunSummary *> byKey;
    for (size_t i = 0; i < wl.jobs.size(); ++i)
        byKey[wl.jobs[i].key] = &recs[i].summary;
    std::vector<double> s;
    for (size_t i = 0; i < wl.jobs.size(); ++i)
        if (!wl.jobs[i].isBaseline)
            s.push_back(computeMetrics(*byKey.at(wl.jobs[i].baselineKey),
                                       recs[i].summary)
                            .speedup);
    return s;
}

/**
 * The warm pass: fig06_cold reruns runCampaign and buildReport on the
 * filled cache (refusing if anything re-simulates); the seeded
 * workloads read every record back and recompute the speedups.
 */
double
warmPass(const Workload &wl, ResultCache &cache)
{
    int64_t t0 = nowNs();
    if (wl.fig06) {
        CampaignRunOptions opt;
        opt.threads = wl.workers;
        opt.verbose = false;
        CampaignRunStats st = runCampaign(wl.campaign, cache, opt);
        if (st.executed != 0)
            unmeasured("warm pass re-simulated "
                       + std::to_string(st.executed) + " jobs");
        CampaignReport rep = buildReport(wl.campaign, cache, nullptr);
        if (rep.json.empty())
            unmeasured("warm pass produced an empty report");
    } else {
        auto recs = lookupAll(wl, cache, nullptr);
        if (speedupsFromRecords(wl, recs).empty())
            unmeasured("warm pass found no prefetcher cells");
    }
    return secondsSince(t0);
}

// ------------------------------------------------------------ output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const auto &m : metrics)
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string j = std::string("{\"correct\": ")
                    + (correct ? "true" : "false")
                    + ", \"attempted\": " + std::to_string(attempted)
                    + ", \"failed\": " + std::to_string(failed)
                    + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        j += (i ? ", " : "") + std::string("\"") + metrics[i].name
             + "\": {\"value\": " + exact(metrics[i].value)
             + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    j += "}}";
    std::printf("%s\n", j.c_str());
}

/** Remove and recreate @p dir (a cold, empty result cache). */
std::string
freshDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// ------------------------------------------------------------ self-test

/** The pinned check must catch one perturbed field of any kind. */
int
selfTest()
{
    RunSummary s;
    s.ipc = 1.2345;
    s.pfIssued = 10;
    s.pfFilled = 9;
    s.pfUseful = 7;
    s.pfLate = 1;
    s.llcDemandMiss = 100;
    s.cyclesExecuted = 5000;
    s.cyclesSkipped = 400;
    std::vector<CoreResult> cores = {{1000, 800}, {1000, 900}};
    DigestMap ref = {{"cell", summaryDigest(s, &cores)}};

    std::vector<std::function<void(RunSummary &, std::vector<CoreResult> &)>>
        perturb = {
            [](RunSummary &x, auto &) { x.ipc = std::nextafter(x.ipc, 2.0); },
            [](RunSummary &, auto &c) { ++c[1].instructions; },
            [](RunSummary &, auto &c) { ++c[0].cycles; },
            [](RunSummary &x, auto &) { ++x.pfIssued; },
            [](RunSummary &x, auto &) { ++x.pfFilled; },
            [](RunSummary &x, auto &) { ++x.pfUseful; },
            [](RunSummary &x, auto &) { ++x.pfLate; },
            [](RunSummary &x, auto &) { ++x.llcDemandMiss; },
            [](RunSummary &x, auto &) { ++x.cyclesSkipped; },
        };
    int bad = 0;
    auto expect = [&](const char *what, const CellOutcome &o, uint64_t want) {
        std::vector<std::string> why;
        uint64_t got = checkCells(ref, {o}, "pinned", &why);
        bool named = want == 0
                     || (!why.empty() && why[0].rfind(o.label + ":", 0) == 0);
        if (got != want || !named) {
            std::printf("self-test FAILED: %s: %llu failures, want %llu\n",
                        what, (unsigned long long)got,
                        (unsigned long long)want);
            ++bad;
        }
    };
    CellOutcome o{"cell", summaryDigest(s, &cores)};
    expect("unperturbed", o, 0);
    for (size_t i = 0; i < perturb.size(); ++i) {
        RunSummary x = s;
        auto c = cores;
        perturb[i](x, c);
        expect(("perturbed field " + std::to_string(i)).c_str(),
               {"cell", summaryDigest(x, &c)}, 1);
    }
    // Engine-specific split: same total cycles, same digest.
    RunSummary polled = s;
    polled.cyclesExecuted += polled.cyclesSkipped;
    polled.cyclesSkipped = 0;
    polled.eventsDispatched = 123456;
    expect("polled split", {"cell", summaryDigest(polled, &cores)}, 0);
    CellOutcome capped = o;
    capped.capped = true;
    expect("capped", capped, 1);
    expect("unknown cell", {"other", o.digest}, 1);
    std::printf(bad ? "self-test: %d FAILED\n" : "self-test: ok\n", bad);
    return bad ? 1 : 0;
}

// ------------------------------------------------------------ main

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    uint32_t workers = 0;
    std::string pins = "perfbench/pins.json";
    std::string workDir = ".bench_work/run";
    bool emitPins = false;
    bool selfTest = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                unmeasured("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = val();
        else if (k == "--seed")
            a.seed = std::stoull(val());
        else if (k == "--seconds")
            a.seconds = std::stod(val());
        else if (k == "--trace")
            a.trace = val() != "0";
        else if (k == "--workers")
            a.workers = uint32_t(std::stoul(val()));
        else if (k == "--pins")
            a.pins = val();
        else if (k == "--work-dir")
            a.workDir = val();
        else if (k == "--emit-pins")
            a.emitPins = true;
        else if (k == "--self-test")
            a.selfTest = true;
        else
            unmeasured("unknown argument '" + k + "'");
    }
    return a;
}

/** Digests and instruction count of the polled reference pass. */
Pin
referencePass(const Workload &wl, const std::string &dir)
{
    ResultCache cache(freshDir(dir));
    BaselineCache baselines(0);
    PassResult p = blockPass(wl, cache, EngineKind::Polled, nullptr,
                             nullptr, &baselines);
    Pin ref;
    ref.found = true;
    ref.cells = digestsOf(p.cells);
    ref.instructions = p.instructions;
    for (const auto &o : p.cells)
        if (o.crashed || o.capped)
            unmeasured("reference cell '" + o.label + "' failed");
    return ref;
}

/** The pins.json entry of a polled reference pass. */
std::string
pinJson(const Pin &pin)
{
    std::string j = "{\"instructions\": " + std::to_string(pin.instructions)
                    + ", \"cells\": {";
    bool first = true;
    for (const auto &[label, d] : pin.cells) {
        j += (first ? "\"" : ", \"") + label + "\": \"" + cellHashHex(d)
             + "\"";
        first = false;
    }
    return j + "}}";
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One benchmark run: set-up, reference, then the timed or traced phase. */
class Bench
{
  public:
    Bench(const Args &args, uint32_t cpus)
        : a(args), nproc(cpus), workers(args.workers ? args.workers : cpus),
          oneThread(args.workload != "fig06_cold")
    {
    }

    int
    run()
    {
        const int64_t epoch = nowNs();
        std::filesystem::create_directories(a.workDir);
        // The first set-up: everything before the first simulation.
        std::tie(wl, firstDir) = a.trace ? setUp(&setupTrace, &setupTotals)
                                         : setUp(nullptr, nullptr);
        const std::string seedKey =
            wl.fig06 ? kRegistrySeed : std::to_string(a.seed);

        pin = loadPin(a.pins, a.workload, seedKey);
        if (a.emitPins || !pin.found) {
            Pin polled = referencePass(wl, a.workDir + "/reference");
            if (a.emitPins) {
                // Pins come from the polled oracle and must also match
                // the default engine.
                ResultCache cache(freshDir(a.workDir + "/cold0"));
                if (checkCells(polled.cells, untracedPass(wl, cache).cells,
                               "polled", &why)) {
                    printMismatches();
                    unmeasured("default engine disagrees with polled");
                }
                std::printf("PINS %s %s %s\n", a.workload.c_str(),
                            seedKey.c_str(), pinJson(polled).c_str());
                return 0;
            }
            pin = polled;
            against = "polled-reference";
        }
        std::printf("reference: %s (%zu cells, workload %s, seed key %s)\n",
                    against, pin.cells.size(), a.workload.c_str(),
                    seedKey.c_str());

        std::vector<Metric> metrics =
            a.trace ? tracedPhase(epoch) : timedPhase();
        printMismatches();
        printResult(failed == 0, attempted, failed, metrics);
        return 0;
    }

  private:
    /**
     * One set-up: load and expand (fig06_cold) or generate the inputs,
     * and make a new cache directory. The directory from two set-ups
     * ago is removed first, outside the timing.
     */
    std::pair<Workload, std::string>
    setUp(Tracer *tr, LayerTotals *tot)
    {
        std::string dir = nextDir();
        std::filesystem::remove_all(dir);
        int64_t t0 = nowNs();
        Workload w = setupWorkload(a.workload, a.seed, workers, tr, tot);
        ResultCache made(dir);
        setups.push_back(secondsSince(t0));
        return {std::move(w), dir};
    }

    std::string
    nextDir()
    {
        return a.workDir + "/cold" + std::to_string(dirs++ % 2);
    }

    void
    check(const PassResult &p)
    {
        attempted += p.cells.size();
        failed += checkCells(pin.cells, p.cells, against, &why);
    }

    uint64_t
    instructionsOf(const PassResult &p) const
    {
        return p.instructions ? p.instructions : pin.instructions;
    }

    /** Each distinct failure once, with how many cells it hit. */
    void
    printMismatches()
    {
        std::map<std::string, int> seen;
        for (const auto &w : why)
            ++seen[w];
        for (const auto &[w, n] : seen)
            std::printf("MISMATCH %s (x%d)\n", w.c_str(), n);
        why.clear();
    }

    /**
     * Rounds until --seconds have elapsed. A round sets up, runs one
     * cold pass into the fresh cache and then warm passes on it: once
     * on each CPU in turn for the one-thread workloads, once on the
     * whole pool for fig06_cold (whose one-thread warm passes visit
     * each CPU in turn). Every statistic is the median over rounds of
     * its round value.
     */
    std::vector<Metric>
    timedPhase()
    {
        const uint32_t lanes = oneThread ? nproc : 1;
        const int warmMin = oneThread ? kWarmPasses : kWarmPasses * int(nproc);
        std::vector<double> rates, cpus, warms, roundSetups;
        std::map<std::string, std::vector<double>> cellSecs;
        double peakRss = 0.0;
        int64_t t0 = nowNs();
        do {
            const bool first = rates.empty();
            const size_t setupMark = first ? 0 : setups.size();
            double wall = 0.0, cpu = 0.0, instr = 0.0;
            std::map<int, std::vector<double>> warmByCpu;
            std::map<std::string, double> cellSum;
            for (uint32_t lane = 0; lane < lanes; ++lane) {
                if (oneThread)
                    pinCpu(int(lane));
                std::string dir = firstDir;
                if (!first || lane > 0) {
                    wl = Workload{}; // one workload in memory at a time
                    std::tie(wl, dir) = setUp(nullptr, nullptr);
                }
                ResultCache cache(dir);
                PassResult p = untracedPass(wl, cache);
                // Later passes repeat the first. Reading the high-water
                // mark here keeps allocator drift over the run (whose
                // pass and warm-pass counts vary) out of it.
                if (first && lane == 0)
                    peakRss = peakRssMb();
                check(p);
                wall += p.wall;
                cpu += p.cpu;
                instr += double(instructionsOf(p));
                for (const auto &o : p.cells)
                    cellSum[o.label] += o.seconds;
                int64_t w0 = nowNs();
                for (int k = 0;
                     k < warmMin || secondsSince(w0) < kWarmSeconds; ++k) {
                    int c = oneThread ? int(lane) : k % int(nproc);
                    if (!oneThread)
                        pinCpu(c);
                    warmByCpu[c].push_back(warmPass(wl, cache));
                }
                if (!oneThread)
                    pinCpu(-1);
            }
            rates.push_back(instr / wall / 1e6);
            cpus.push_back(cpu / lanes);
            double warm = 0.0;
            for (const auto &[c, v] : warmByCpu)
                warm += median(v);
            warms.push_back(warm / double(warmByCpu.size()));
            roundSetups.push_back(mean(std::vector<double>(
                setups.begin() + long(setupMark), setups.end())));
            for (const auto &[label, secs] : cellSum)
                cellSecs[label].push_back(secs / lanes);
        } while (secondsSince(t0) < a.seconds);

        // A job's time is its median over the rounds; the percentiles
        // run over the jobs of the batch.
        std::vector<double> jobSecs;
        for (const auto &[label, secs] : cellSecs)
            jobSecs.push_back(median(secs));
        size_t beyond = jobSecs.size()
                        - size_t(std::ceil(0.95 * double(jobSecs.size())));
        std::printf("round rates (Minstr/s):");
        for (double r : rates)
            std::printf(" %.3f", r);
        std::printf("\nrounds: %zu of %u pass(es); jobs: %zu, each the "
                    "median of its rounds (%zu beyond p95); "
                    "failed_frac = %.6g (%llu/%llu cells)\n",
                    rates.size(), lanes, jobSecs.size(), beyond,
                    ratio(double(failed), double(attempted)),
                    (unsigned long long)failed,
                    (unsigned long long)attempted);
        return {
            {"setup_s", median(roundSetups), "s"},
            {"minstr_per_s", median(rates), "Minstr/s"},
            {"cpu_s", median(cpus), "s"},
            {"cell_p50_s", median(jobSecs), "s"},
            {"cell_p95_s", percentile(jobSecs, 0.95), "s"},
            {"warm_s", median(warms), "s"},
            {"peak_rss_mb", peakRss, "MB"},
        };
    }

    /**
     * Alternate untraced and traced passes until --seconds have
     * elapsed; the per-layer numbers come from the traced set-up and
     * the last traced pass.
     */
    std::vector<Metric>
    tracedPhase(int64_t epoch)
    {
        std::vector<double> plain, traced;
        std::unique_ptr<Tracer> passTrace;
        std::unique_ptr<LayerTotals> totals;
        int64_t t0 = nowNs();
        do {
            if (oneThread)
                pinCpu(int(traced.size()));
            DigestMap untracedDigests;
            {
                ResultCache cache(freshDir(nextDir()));
                PassResult p = untracedPass(wl, cache);
                check(p);
                plain.push_back(p.wall);
                untracedDigests = digestsOf(p.cells);
            }
            passTrace = std::make_unique<Tracer>();
            totals = std::make_unique<LayerTotals>();
            ResultCache cache(freshDir(nextDir()));
            BaselineCache baselines(0);
            PassResult p = blockPass(wl, cache, EngineKind::Event,
                                     passTrace.get(), totals.get(),
                                     &baselines);
            check(p);
            // Traced/untraced agreement, cell by cell.
            failed += checkCells(untracedDigests, p.cells, "untraced", &why);
            traced.push_back(p.wall);
            warmAndEvaluate(cache, baselines, passTrace.get(), *totals);
        } while (secondsSince(t0) < a.seconds);

        const double overhead = median(traced) / median(plain) - 1.0;
        for (const auto &[name, sc] : totals->schemes)
            std::printf("hooks %s: %llu calls, %.6f s, %.1f ns/call\n",
                        name.c_str(), (unsigned long long)sc.hooks.calls,
                        double(sc.hooks.ns) * 1e-9,
                        ratio(double(sc.hooks.ns), double(sc.hooks.calls)));
        std::printf("traced passes: %zu; trace_overhead_frac = %.4f "
                    "(traced %.3f s / untraced %.3f s, medians); "
                    "prefetchers.gaze.speedup is shown beside the "
                    "paper's ~1.28x only for the shape of the result\n",
                    traced.size(), overhead, median(traced), median(plain));
        setupTrace.write(a.workDir + "/spans-setup.jsonl", epoch);
        passTrace->write(a.workDir + "/spans-pass.jsonl", epoch);
        return perLayerMetrics(*passTrace, *totals, overhead);
    }

    /**
     * The traced warm read-back, then the harness evaluation (each
     * cell's speedup against its memoized baseline) and the report.
     */
    void
    warmAndEvaluate(const ResultCache &cache, BaselineCache &baselines,
                    Tracer *tr, LayerTotals &tot)
    {
        auto recs = lookupAll(wl, cache, tr);
        {
            ScopedSpan ev(tr, "harness.evaluate");
            for (size_t i = 0; i < wl.jobs.size(); ++i) {
                const BenchJob &job = wl.jobs[i];
                if (job.isBaseline)
                    continue;
                RunResult base = baselines.getOrCompute(job.baselineKey, [&] {
                    ++tot.baselineComputes;
                    return simulateCell(wl.run, job, PfSpec{}, tr, int(i),
                                        &tot);
                });
                ++tot.baselineCalls;
                tot.schemes[schemeOf(job.pf)].speedups.push_back(
                    computeMetrics(summarize(base), recs[i].summary).speedup);
            }
        }
        ScopedSpan rs(tr, "campaign.report");
        if (wl.fig06)
            buildReport(wl.campaign, cache, nullptr);
        else
            speedupsFromRecords(wl, recs);
    }

    std::vector<Metric>
    perLayerMetrics(const Tracer &pt, const LayerTotals &t,
                    double overhead) const
    {
        const Tracer &st = setupTrace;
        const double genS = st.total("workloads") + pt.total("workloads");
        const double genRecords =
            double(setupTotals.genRecords + t.genRecords);
        const double simS = pt.total("sim");
        uint64_t hookCalls = 0;
        int64_t hookNs = 0;
        for (const auto &[n, sc] : t.schemes) {
            hookCalls += sc.hooks.calls;
            hookNs += sc.hooks.ns;
        }
        const std::vector<double> jobs = pt.durations("campaign.job");
        const double poolWall = double(wl.workers) * pt.total("campaign.pass");
        const double cycles = double(t.cycles);
        const double instr = double(t.measuredInstr);

        std::vector<Metric> m = {
            {"workloads.gen_calls",
             double(st.durations("workloads").size()
                    + pt.durations("workloads").size()),
             "count"},
            {"workloads.gen_s", genS, "s"},
            {"workloads.gen_ns_per_record", ratio(genS * 1e9, genRecords),
             "ns"},
            {"sim.run_s", simS, "s"},
            {"sim.ns_per_cycle", ratio(simS * 1e9, cycles), "ns"},
            {"sim.ns_per_event", ratio(simS * 1e9, double(t.events)), "ns"},
            {"sim.cycles", cycles, "count"},
            {"sim.cycles_executed", double(t.cyclesExecuted), "count"},
            {"sim.events", double(t.events), "count"},
            {"sim.skip_frac", 1.0 - ratio(double(t.cyclesExecuted), cycles),
             "frac"},
            {"sim.l1d.mpki", ratio(1000.0 * double(t.l1dMiss), instr),
             "mpki"},
            {"sim.llc.mpki", ratio(1000.0 * double(t.llcMiss), instr),
             "mpki"},
            {"sim.dram.bus_busy_frac",
             ratio(double(t.dramBusy), double(t.channelCycles)), "frac"},
            {"sim.dram.row_hit_rate",
             ratio(double(t.rowHits), double(t.rowHits + t.rowMisses)),
             "frac"},
            {"sim.core.rob_full_frac",
             ratio(double(t.robFull), double(t.coreCycles)), "frac"},
            {"prefetchers.calls", double(hookCalls), "count"},
            {"prefetchers.s", double(hookNs) * 1e-9, "s"},
            {"prefetchers.ns_per_call",
             ratio(double(hookNs), double(hookCalls)), "ns"},
        };
        for (const std::string &name : kSchemes) {
            auto it = t.schemes.find(name);
            const SchemeTotals sc =
                it == t.schemes.end() ? SchemeTotals{} : it->second;
            const std::string pre = "prefetchers." + name;
            m.push_back({pre + ".calls", double(sc.hooks.calls), "count"});
            m.push_back({pre + ".issued", double(sc.issued), "count"});
            m.push_back({pre + ".accuracy",
                         std::min(1.0, ratio(double(sc.useful + sc.late),
                                             double(sc.filled + sc.late))),
                         "frac"});
            m.push_back(
                {pre + ".dropped_full", double(sc.droppedFull), "count"});
            if (name != "gaze")
                continue;
            m.push_back({pre + ".s", double(sc.hooks.ns) * 1e-9, "s"});
            m.push_back({pre + ".ns_per_call",
                         ratio(double(sc.hooks.ns), double(sc.hooks.calls)),
                         "ns"});
            m.push_back({pre + ".speedup",
                         sc.speedups.empty() ? 0.0 : geomean(sc.speedups),
                         "ratio"});
        }
        double busy = 0.0;
        for (double d : jobs)
            busy += d;
        m.insert(m.end(), {
            {"harness.baseline_computes", double(t.baselineComputes),
             "count"},
            {"harness.baseline_hits",
             double(t.baselineCalls - t.baselineComputes), "count"},
            {"harness.self_s", pt.selfTotal("harness"), "s"},
            {"campaign.expand_s", st.total("campaign.expand"), "s"},
            {"campaign.job_p50_s", percentile(jobs, 0.50), "s"},
            {"campaign.job_p95_s", percentile(jobs, 0.95), "s"},
            {"campaign.store_s", pt.total("campaign.store"), "s"},
            {"campaign.store_calls",
             double(pt.durations("campaign.store").size()), "count"},
            {"campaign.lookup_s", pt.total("campaign.lookup"), "s"},
            {"campaign.lookup_calls",
             double(pt.durations("campaign.lookup").size()), "count"},
            {"campaign.report_s", pt.total("campaign.report"), "s"},
            {"campaign.pool_idle_frac", 1.0 - ratio(busy, poolWall), "frac"},
            {"trace_overhead_frac", overhead, "frac"},
        });
        return m;
    }

    const Args &a;
    const uint32_t nproc;
    const uint32_t workers;
    const bool oneThread;

    Workload wl;
    std::string firstDir;
    int dirs = 0;
    std::vector<double> setups;
    Tracer setupTrace;
    LayerTotals setupTotals;

    Pin pin;
    const char *against = "pinned";
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> why;
};

int
run(const Args &a)
{
    refuseUnfitBuild();
    std::printf("# build {\"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"gaze_obs\": %d}\n",
                __VERSION__, GAZE_BENCH_BUILD_TYPE, GAZE_OBS_ON);
    if (a.selfTest)
        return selfTest();
    const uint32_t nproc = uint32_t(allowedCpus().size());
    if (a.workers > nproc)
        unmeasured(std::to_string(a.workers) + " workers requested but "
                   "only " + std::to_string(nproc) + " CPUs online");
    if (a.seconds <= 0.0)
        unmeasured("--seconds must be positive");
    // Fixed before anything reads it: the scale is part of every key.
    setenv("GAZE_SIM_SCALE", kFig06Scale, 1);
    return Bench(a, nproc).run();
}

} // namespace
} // namespace gaze::bench

int
main(int argc, char **argv)
{
    return gaze::bench::run(gaze::bench::parseArgs(argc, argv));
}
