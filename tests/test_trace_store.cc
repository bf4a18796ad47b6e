/**
 * @file
 * The batch-scoped trace store: compute-once generation under racing
 * openers, exception delivery to every waiter, planned release, the
 * interleaved submission order, and the campaign-level guarantees
 * built on them (one generation per workload per run, none on a warm
 * rerun, identical results at any thread count).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/engine.hh"
#include "campaign/json.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "harness/runner.hh"
#include "workloads/trace_store.hh"

namespace gaze
{
namespace
{

std::string
freshDir(const std::string &name)
{
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/** A small deterministic trace: a load stream over @p n blocks. */
VectorTrace
streamTrace(uint64_t n)
{
    VectorTrace t;
    for (uint64_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.pc = 0x400000;
        r.vaddr = 0x10000000 + i * 64;
        r.op = TraceOp::Load;
        t.data().push_back(r);
    }
    return t;
}

/** A workload whose generator counts its calls (and dawdles a bit so
    racing openers really overlap the generation). */
WorkloadDef
countingWorkload(const std::string &name, std::atomic<int> *calls)
{
    return WorkloadDef(name, "test", [calls] {
        calls->fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return streamTrace(256);
    });
}

std::vector<TraceRecord>
drain(TraceSource &src)
{
    std::vector<TraceRecord> out;
    TraceRecord r;
    while (src.next(r))
        out.push_back(r);
    return out;
}

TEST(TraceStore, RacingOpenersGenerateOnce)
{
    std::atomic<int> calls{0};
    WorkloadDef w = countingWorkload("race", &calls);
    constexpr int kJobs = 8;
    TraceStore store(std::vector<const WorkloadDef *>(kJobs, &w));

    std::vector<std::vector<TraceRecord>> seen(kJobs);
    std::vector<std::thread> threads;
    for (int i = 0; i < kJobs; ++i)
        threads.emplace_back([&, i] {
            auto src = store.open(w);
            seen[i] = drain(*src);
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(calls.load(), 1);
    const std::vector<TraceRecord> expected = streamTrace(256).data();
    for (const auto &s : seen)
        EXPECT_EQ(s, expected);
}

TEST(TraceStore, GeneratorExceptionReachesEveryWaiter)
{
    std::atomic<int> calls{0};
    WorkloadDef w("broken", "test", [&calls]() -> VectorTrace {
        calls.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        throw std::runtime_error("generator failed");
    });
    constexpr int kJobs = 6;
    TraceStore store(std::vector<const WorkloadDef *>(kJobs, &w));

    std::atomic<int> caught{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kJobs; ++i)
        threads.emplace_back([&] {
            try {
                store.open(w);
            } catch (const std::runtime_error &e) {
                if (std::string(e.what()) == "generator failed")
                    caught.fetch_add(1);
            }
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(caught.load(), kJobs);
}

TEST(TraceStore, BufferDroppedAfterLastPlannedJob)
{
    std::atomic<int> aCalls{0}, bCalls{0};
    WorkloadDef a = countingWorkload("a", &aCalls);
    WorkloadDef b = countingWorkload("b", &bCalls);
    TraceStore store({&a, &b, &a});
    EXPECT_EQ(store.resident(), 0u); // lazy: planning generates nothing

    auto first = store.open(a);
    EXPECT_EQ(store.resident(), 1u);
    store.release(a);
    EXPECT_EQ(store.resident(), 1u); // one job of a still planned

    auto second = store.open(a); // served from the buffer
    store.release(a);
    EXPECT_EQ(store.resident(), 0u);
    EXPECT_EQ(aCalls.load(), 1);
    // Cursors handed out before the drop keep their buffer alive.
    EXPECT_EQ(drain(*first).size(), 256u);
    EXPECT_EQ(drain(*second).size(), 256u);

    store.open(b);
    EXPECT_EQ(store.resident(), 1u);
    store.release(b);
    EXPECT_EQ(store.resident(), 0u);
    EXPECT_EQ(bCalls.load(), 1);
}

TEST(TraceStore, HomogeneousMultiCoreJobSharesOneBuffer)
{
    std::atomic<int> calls{0};
    WorkloadDef w = countingWorkload("mc", &calls);
    TraceStore store({&w});
    RunConfig run;
    run.warmupInstr = 200;
    run.simInstr = 500;
    Runner runner(run, nullptr, &store);
    RunResult r = runner.runMix({w, w}, PfSpec{});
    store.release(w);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(r.cores.size(), 2u);
    EXPECT_EQ(store.resident(), 0u);
}

TEST(TraceStore, InterleavedJobOrder)
{
    // Workloads by first appearance: a {0,1,5}, b {2,4}, c {3,7}, d {6}.
    const WorkloadDef a("a", "test", nullptr), b("b", "test", nullptr),
        c("c", "test", nullptr), d("d", "test", nullptr);
    const std::vector<const WorkloadDef *> jobs = {&a, &a, &b, &c,
                                                   &b, &a, &d, &c};
    EXPECT_EQ(interleavedJobOrder(jobs, 2),
              (std::vector<size_t>{0, 2, 1, 4, 5, 3, 6, 7}));
    EXPECT_EQ(interleavedJobOrder(jobs, 1),
              (std::vector<size_t>{0, 1, 5, 2, 4, 3, 7, 6}));
    EXPECT_EQ(interleavedJobOrder(jobs, 4),
              (std::vector<size_t>{0, 2, 3, 6, 1, 4, 7, 5}));
    EXPECT_TRUE(interleavedJobOrder({}, 4).empty());
}

// ---- through runCampaign --------------------------------------------

JsonValue
parseSpecText(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, &doc, &error)) << error;
    return doc;
}

/** Generator calls per workload name, across every copy of the defs. */
struct GenCounter
{
    std::mutex mtx;
    std::map<std::string, int> calls;

    int
    total()
    {
        std::lock_guard<std::mutex> lock(mtx);
        int n = 0;
        for (const auto &[name, c] : calls)
            n += c;
        return n;
    }
};

void
countGenerations(WorkloadDef &w, GenCounter *counter)
{
    w.make = [orig = w.make, name = w.name, counter] {
        {
            std::lock_guard<std::mutex> lock(counter->mtx);
            ++counter->calls[name];
        }
        return orig();
    };
}

/** 3 workloads x 2 prefetchers (6 cells + 3 baselines), counted. */
Campaign
countedCampaign(GenCounter *counter)
{
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"store","prefetchers":["ip_stride","gaze"],)"
        R"("workloads":["leslie3d","mcf","lbm"],)"
        R"("warmup":500,"sim":2000})"));
    Campaign c = expandCampaign(spec);
    for (auto &cell : c.cells)
        countGenerations(cell.workload, counter);
    for (auto &b : c.baselines)
        countGenerations(b.workload, counter);
    return c;
}

CampaignRunOptions
quietOptions(uint32_t threads)
{
    CampaignRunOptions opt;
    opt.threads = threads;
    opt.verbose = false;
    return opt;
}

TEST(TraceStoreCampaign, OneGenerationPerWorkloadAndNoneWarm)
{
    GenCounter counter;
    Campaign campaign = countedCampaign(&counter);
    ResultCache cache(freshDir("trace_store_once"));

    CampaignRunStats cold = runCampaign(campaign, cache, quietOptions(4));
    EXPECT_EQ(cold.executed, 9u);
    EXPECT_EQ(counter.calls,
              (std::map<std::string, int>{
                  {"lbm", 1}, {"leslie3d", 1}, {"mcf", 1}}));

    CampaignRunStats warm = runCampaign(campaign, cache, quietOptions(4));
    EXPECT_EQ(warm.executed, 0u);
    EXPECT_EQ(counter.total(), 3);
}

/** A cell file with its wall-clock fields zeroed. */
std::string
deterministicBytes(const ResultCache &cache, uint64_t hash)
{
    std::ifstream in(cache.path(hash), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    static const std::regex timing("\"(seconds|minstr_per_sec)\":[^,}]*");
    return std::regex_replace(ss.str(), timing, "\"$1\":0");
}

TEST(TraceStoreCampaign, OneAndFourThreadsAgree)
{
    GenCounter counter;
    Campaign campaign = countedCampaign(&counter);
    ResultCache one(freshDir("trace_store_t1"));
    ResultCache four(freshDir("trace_store_t4"));
    runCampaign(campaign, one, quietOptions(1));
    runCampaign(campaign, four, quietOptions(4));
    EXPECT_EQ(counter.total(), 6);

    CampaignReport r1 = buildReport(campaign, one, nullptr);
    CampaignReport r4 = buildReport(campaign, four, nullptr);
    EXPECT_EQ(r1.json, r4.json);
    EXPECT_EQ(r1.csv, r4.csv);
    for (const CampaignJob &job : expandCampaignJobs(campaign)) {
        std::string a = deterministicBytes(one, job.hash);
        EXPECT_FALSE(a.empty()) << job.label;
        EXPECT_EQ(a, deterministicBytes(four, job.hash)) << job.label;
    }
}

} // namespace
} // namespace gaze
