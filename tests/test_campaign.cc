/**
 * @file
 * Campaign subsystem tests: the JSON reader's happy/error paths, spec
 * parsing + deterministic expansion, canonical cell keys, the
 * content-addressed cache (round trip, collision guard, malformed
 * files, a cache that never creates its directory on a read),
 * RunSummary equivalence with full-RunResult metric math, L1+L2 pair
 * and system-override cells against the Runner they stand for, and an
 * in-process end-to-end: a tiny campaign run twice must serve the
 * second run entirely from cache with a byte-identical report, and
 * two complementary shards must aggregate to the unsharded result.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/engine.hh"
#include "campaign/json.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "harness/cell_key.hh"
#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "workloads/suites.hh"

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

// ---- JSON reader ----------------------------------------------------

TEST(CampaignJson, ParsesNestedDocument)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"({"name":"x","n":-2.5e2,"flag":true,"none":null,)"
        R"("arr":[1,"two",{"k":3}],"esc":"a\"b\\cA\n"})",
        &doc, &error))
        << error;
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.find("name")->asString(), "x");
    EXPECT_DOUBLE_EQ(doc.find("n")->asNumber(), -250.0);
    EXPECT_TRUE(doc.find("flag")->asBool());
    EXPECT_TRUE(doc.find("none")->isNull());
    const auto &arr = doc.find("arr")->items();
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr[0].asNumber(), 1.0);
    EXPECT_EQ(arr[1].asString(), "two");
    EXPECT_DOUBLE_EQ(arr[2].find("k")->asNumber(), 3.0);
    EXPECT_EQ(doc.find("esc")->asString(), "a\"b\\cA\n");
    EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(CampaignJson, RejectsMalformedDocuments)
{
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson("", &doc, &error));
    EXPECT_FALSE(parseJson("{", &doc, &error));
    EXPECT_FALSE(parseJson("{\"a\":1,}", &doc, &error));
    EXPECT_FALSE(parseJson("[1 2]", &doc, &error));
    EXPECT_FALSE(parseJson("\"unterminated", &doc, &error));
    EXPECT_FALSE(parseJson("\"bad \\q escape\"", &doc, &error));
    EXPECT_FALSE(parseJson("01x", &doc, &error));
    EXPECT_FALSE(parseJson("{} trailing", &doc, &error));
    EXPECT_FALSE(parseJson("1e99999", &doc, &error));
    // The error names a position.
    parseJson("{} trailing", &doc, &error);
    EXPECT_NE(error.find("at byte"), std::string::npos);
}

TEST(CampaignJson, DeepNestingIsRejectedNotACrash)
{
    std::string deep(1000, '[');
    deep += std::string(1000, ']');
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(parseJson(deep, &doc, &error));
    EXPECT_NE(error.find("nested too deeply"), std::string::npos);
}

TEST(CampaignJson, AsCountValidates)
{
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson("[42, -1, 1.5, 300]", &doc, &error));
    EXPECT_EQ(doc.items()[0].asCount("x"), 42u);
    EXPECT_DEATH(doc.items()[1].asCount("x"), "non-negative");
    EXPECT_DEATH(doc.items()[2].asCount("x"), "non-negative");
    EXPECT_DEATH(doc.items()[3].asCount("x", 256), "out of range");
}

// ---- spec parsing + expansion ---------------------------------------

JsonValue
parseSpecText(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(text, &doc, &error)) << error;
    return doc;
}

TEST(CampaignSpecParse, MinimalSpecGetsDefaults)
{
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"c1","prefetchers":["gaze"],"workloads":["mcf"]})"));
    EXPECT_EQ(spec.name, "c1");
    ASSERT_EQ(spec.prefetchers.size(), 1u);
    EXPECT_EQ(spec.prefetchers[0].label(), "gaze");
    EXPECT_FALSE(spec.prefetchers[0].isPair());
    EXPECT_TRUE(spec.systems.empty());
    EXPECT_EQ(spec.levels, (std::vector<std::string>{"l1"}));
    EXPECT_EQ(spec.coreCounts, (std::vector<uint32_t>{1}));
    EXPECT_EQ(spec.run.warmupInstr, 0u);
    EXPECT_TRUE(spec.traceDir.empty());
}

TEST(CampaignSpecParse, FatalSpecErrors)
{
    EXPECT_DEATH(parseCampaignSpec(parseSpecText(
                     R"({"prefetchers":["gaze"]})")),
                 "missing required \"name\"");
    EXPECT_DEATH(parseCampaignSpec(parseSpecText(R"({"name":"x"})")),
                 "missing required \"prefetchers\"");
    EXPECT_DEATH(parseCampaignSpec(parseSpecText(
                     R"({"name":"x","prefetchers":["warp_drive"]})")),
                 "");
    EXPECT_DEATH(
        parseCampaignSpec(parseSpecText(
            R"({"name":"x","prefetchers":["gaze"],"typo_key":1})")),
        "unknown key");
    EXPECT_DEATH(
        parseCampaignSpec(parseSpecText(
            R"({"name":"x","prefetchers":["gaze"],"levels":["l3"]})")),
        "unknown attach level");
    // A repeated key dies naming it instead of dropping the first
    // occurrence's axis.
    EXPECT_EXIT(
        parseCampaignSpec(parseSpecText(
            R"({"name":"d","prefetchers":["gaze","pmp"],)"
            R"("workloads":["mcf"],"prefetchers":["ip_stride"]})")),
        testing::ExitedWithCode(1),
        "duplicate key \"prefetchers\"");
    // Suites are validated even when "workloads" overrides them — a
    // typo'd axis must never be silently dropped.
    EXPECT_DEATH(
        parseCampaignSpec(parseSpecText(
            R"({"name":"x","prefetchers":["gaze"],)"
            R"("workloads":["mcf"],"suites":["spec6_typo"]})")),
        "unknown suite");
    EXPECT_DEATH(
        parseCampaignSpec(parseSpecText(
            R"({"name":"x","prefetchers":["gaze"],"cores":[0]})")),
        "power of two");
    // The LLC's set count scales with the core count: a count that is
    // not a power of two is diagnosed at parse time (same message as
    // gaze_sim --cores), not by an assertion inside a pool worker.
    EXPECT_EXIT(
        parseCampaignSpec(parseSpecText(
            R"({"name":"x","prefetchers":["gaze"],"cores":[3]})")),
        testing::ExitedWithCode(1), "unsupported core count 3: must be "
                                    "a power of two");
    EXPECT_DEATH(
        parseCampaignSpec(parseSpecText(
            R"({"name":"x","prefetchers":["gaze"],)"
            R"("workloads":["nope"]})")),
        "unknown workload");
    EXPECT_DEATH(parseCampaignSpec(parseSpecText(
                     R"(["not","an","object"])")),
                 "must be a JSON object");
    EXPECT_DEATH(parseCampaignSpec(parseSpecText(
                     R"({"name":"","prefetchers":["gaze"]})")),
                 "\"name\" must be a non-empty string");
    // trace_dir is resolved at expansion: a dangling path dies before
    // any simulation or cache I/O.
    EXPECT_DEATH(expandCampaign(parseCampaignSpec(parseSpecText(
                     R"({"name":"x","prefetchers":["gaze"],)"
                     R"("workloads":["mcf"],)"
                     R"("trace_dir":"/no/such/dir"})"))),
                 "no usable trace");
}

TEST(CampaignSpecParse, PairsAndSystemsAreDiagnosed)
{
    auto dies = [](const std::string &text, const char *why) {
        EXPECT_EXIT(parseCampaignSpec(parseSpecText(text)),
                    testing::ExitedWithCode(1), why)
            << text;
    };
    dies(R"({"name":"x","prefetchers":[["gaze","bingo","pmp"]]})",
         "two-string array");
    dies(R"({"name":"x","prefetchers":[["gaze"]]})", "two-string array");
    dies(R"({"name":"x","prefetchers":[["gaze",3]]})", "two-string array");
    dies(R"({"name":"x","prefetchers":[["gaze","none"]]})",
         "\"none\" half");
    dies(R"({"name":"x","prefetchers":[["gaze","bingo"]],)"
         R"("levels":["l2"]})",
         "pair \"gaze\\+bingo\" attaches at L1 and L2 itself");
    dies(R"({"name":"x","prefetchers":[{"l1":"gaze"}]})",
         "only spec strings");
    dies(R"({"name":"x","prefetchers":["gaze"],)"
         R"("systems":{"s":{"l3_bytes":1024}}})",
         "system \"s\": unknown key \"l3_bytes\"");
    dies(R"({"name":"x","prefetchers":["gaze"],)"
         R"("systems":{"s":{"l2_bytes":3000}}})",
         "\"l2_bytes\" = 3000 bytes .* power of two");
    dies(R"({"name":"x","prefetchers":["gaze"],)"
         R"("systems":{"s":{"llc_bytes_per_core":3145728}}})",
         "set count must be a power of two");
    dies(R"({"name":"x","prefetchers":["gaze"],)"
         R"("systems":{"s":{"dram_mtps":"fast"}}})",
         "MT/s");
    dies(R"({"name":"x","prefetchers":["gaze"],"systems":{}})",
         "non-empty object");
    dies(R"({"name":"x","prefetchers":["gaze"],)"
         R"("systems":{"s":{},"s":{}}})",
         "duplicate system \"s\"");
    dies(R"({"name":"x","prefetchers":["gaze"],)"
         R"("systems":{"a b":{}}})",
         "system name");

    // A non-finite value never comes out of the JSON parser, but the
    // spec check does not rely on that.
    JsonValue nan_system = JsonValue::makeObject(
        {{"name", JsonValue::makeString("x")},
         {"prefetchers",
          JsonValue::makeArray({JsonValue::makeString("gaze")})},
         {"systems",
          JsonValue::makeObject(
              {{"s", JsonValue::makeObject(
                         {{"dram_mtps", JsonValue::makeNumber(NAN)}})}})}});
    EXPECT_EXIT(parseCampaignSpec(nan_system), testing::ExitedWithCode(1),
                "MT/s");
}

TEST(CampaignSpecParse, PairHalvesAreCanonicalAndNeverSplitOnPlus)
{
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"p","prefetchers":["sms:scheme=pc+addr",)"
        R"(["berti","bingo"],["sms:scheme=pc+addr","bingo"],)"
        R"(["vberti","bingo"]],"workloads":["mcf"]})"));
    ASSERT_EQ(spec.prefetchers.size(), 3u); // the vberti pair repeats
    EXPECT_FALSE(spec.prefetchers[0].isPair());
    EXPECT_EQ(spec.prefetchers[0].spec, "sms:scheme=pc+addr");
    EXPECT_EQ(spec.prefetchers[1].spec, "vberti");
    EXPECT_EQ(spec.prefetchers[1].l2, "bingo");
    EXPECT_EQ(spec.prefetchers[1].label(), "vberti+bingo");
    EXPECT_EQ(spec.prefetchers[2].spec, "sms:scheme=pc+addr");
    EXPECT_EQ(spec.prefetchers[2].l2, "bingo");
    PfSpec pf = spec.prefetchers[2].at("l1");
    EXPECT_EQ(pf.l1, "sms:scheme=pc+addr");
    EXPECT_EQ(pf.l2, "bingo");
}

TEST(CampaignExpand, CellOrderAndBaselineDedup)
{
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"c2","prefetchers":["ip_stride","gaze"],)"
        R"("workloads":["leslie3d","mcf"],"levels":["l1","l2"],)"
        R"("cores":[1],"warmup":1000,"sim":4000})"));
    Campaign c = expandCampaign(spec);

    // 2 levels x 1 core count x 2 prefetchers x 2 workloads.
    ASSERT_EQ(c.cells.size(), 8u);
    // Baselines do not depend on prefetcher or level: one per
    // (cores, workload).
    EXPECT_EQ(c.baselines.size(), 2u);

    EXPECT_EQ(c.cells[0].prefetcher, "ip_stride");
    EXPECT_EQ(c.cells[0].workload.name, "leslie3d");
    EXPECT_EQ(c.cells[0].level, "l1");
    EXPECT_EQ(c.cells[1].workload.name, "mcf");
    EXPECT_EQ(c.cells[2].prefetcher, "gaze");
    EXPECT_EQ(c.cells[4].level, "l2");

    // l1 and l2 attachment of the same prefetcher are different
    // cells, but share a baseline.
    EXPECT_NE(c.cells[0].hash, c.cells[4].hash);
    EXPECT_EQ(c.cells[0].baselineHash, c.cells[4].baselineHash);

    // Without "systems" every cell is on the one default system and
    // job labels do not name it.
    for (const auto &cell : c.cells)
        EXPECT_EQ(cell.system, "default");
    std::vector<CampaignJob> jobs = expandCampaignJobs(c);
    EXPECT_EQ(jobs[0].label, "baseline x leslie3d (1c)");
    EXPECT_EQ(jobs[2].label, "ip_stride x leslie3d (1c, l1)");

    // Expansion is deterministic.
    Campaign again = expandCampaign(spec);
    ASSERT_EQ(again.cells.size(), c.cells.size());
    for (size_t i = 0; i < c.cells.size(); ++i) {
        EXPECT_EQ(again.cells[i].key, c.cells[i].key);
        EXPECT_EQ(again.cells[i].hash, c.cells[i].hash);
    }
}

// ---- canonical cell keys --------------------------------------------

TEST(CellKey, SensitiveToEveryAxis)
{
    RunConfig cfg;
    cfg.warmupInstr = 1000;
    cfg.simInstr = 4000;
    std::vector<WorkloadDef> mix = {findWorkload("mcf")};

    std::string base = canonicalCellText(cfg, PfSpec{"gaze"}, mix);
    EXPECT_EQ(base, canonicalCellText(cfg, PfSpec{"gaze"}, mix));
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{"pmp"}, mix));
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{"none", "gaze"}, mix));
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{}, mix));

    RunConfig warm = cfg;
    warm.warmupInstr = 2000;
    EXPECT_NE(base, canonicalCellText(warm, PfSpec{"gaze"}, mix));

    RunConfig bigL2 = cfg;
    bigL2.system.l2Bytes *= 2;
    EXPECT_NE(base, canonicalCellText(bigL2, PfSpec{"gaze"}, mix));

    std::vector<WorkloadDef> wide(2, findWorkload("mcf"));
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{"gaze"}, wide));

    std::vector<WorkloadDef> other = {findWorkload("leslie3d")};
    EXPECT_NE(base, canonicalCellText(cfg, PfSpec{"gaze"}, other));

    // The schema version is part of the text.
    EXPECT_NE(base.find("schema="), std::string::npos);

    uint64_t h = cellHash(base);
    EXPECT_EQ(h, cellHash(base));
    EXPECT_NE(h, cellHash(base + "x"));
    EXPECT_EQ(cellHashHex(h).size(), 16u);
}

// ---- result cache ---------------------------------------------------

TEST(ResultCacheTest, StoreLookupRoundTrip)
{
    ResultCache cache(freshDir("campaign_cache_rt"));
    CellRecord rec;
    rec.key = "schema=1;test-key";
    rec.summary.ipc = 1.2345;
    rec.summary.pfIssued = 100;
    rec.summary.pfFilled = 90;
    rec.summary.pfUseful = 70;
    rec.summary.pfLate = 5;
    rec.summary.llcDemandMiss = 1234;
    rec.summary.pfDroppedHit = 17;
    rec.seconds = 0.5;
    uint64_t hash = cellHash(rec.key);

    CellRecord out;
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out));
    cache.store(hash, rec);
    ASSERT_TRUE(cache.lookup(hash, rec.key, &out));
    EXPECT_DOUBLE_EQ(out.summary.ipc, 1.2345);
    EXPECT_EQ(out.summary.pfIssued, 100u);
    EXPECT_EQ(out.summary.pfFilled, 90u);
    EXPECT_EQ(out.summary.pfUseful, 70u);
    EXPECT_EQ(out.summary.pfLate, 5u);
    EXPECT_EQ(out.summary.llcDemandMiss, 1234u);
    EXPECT_EQ(out.summary.pfDroppedHit, 17u);

    // No temp droppings left behind by the atomic publish.
    size_t files = 0;
    for (const auto &entry : std::filesystem::directory_iterator(
             cache.directory())) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(ResultCacheTest, OnlyAStoreCreatesTheDirectory)
{
    std::string dir = freshDir("campaign_cache_lazy") + "/nested";
    ResultCache cache(dir);
    CellRecord rec;
    rec.key = "schema=1;lazy";
    CellRecord out;
    EXPECT_FALSE(cache.lookup(cellHash(rec.key), rec.key, &out));
    EXPECT_FALSE(std::filesystem::exists(dir));

    cache.store(cellHash(rec.key), rec);
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    EXPECT_TRUE(cache.lookup(cellHash(rec.key), rec.key, &out));
}

TEST(ResultCacheTest, KeyMismatchAndCorruptionReadAsMiss)
{
    ResultCache cache(freshDir("campaign_cache_bad"));
    CellRecord rec;
    rec.key = "schema=1;the-real-key";
    rec.summary.ipc = 1.0;
    uint64_t hash = cellHash(rec.key);
    cache.store(hash, rec);

    // Same hash, different canonical text: hash collision guard.
    CellRecord out;
    std::string why;
    EXPECT_FALSE(cache.lookup(hash, "schema=1;other-key", &out, &why));
    EXPECT_NE(why.find("mismatch"), std::string::npos);

    // Parseable record with a matching key but a missing counter
    // (e.g. written by a modified build that forgot to bump the
    // schema): a miss to recompute, never a fatal.
    {
        std::ofstream f(cache.path(hash),
                        std::ios::binary | std::ios::trunc);
        f << "{\"schema\":" << kCellSchemaVersion << ",\"key\":\""
          << rec.key << "\",\"ipc\":1.0,\"seconds\":0.1}";
    }
    why.clear();
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out, &why));
    EXPECT_NE(why.find("malformed"), std::string::npos);

    // A record from a previous schema version: stale, reads as miss.
    {
        std::ofstream f(cache.path(hash),
                        std::ios::binary | std::ios::trunc);
        f << "{\"schema\":" << kCellSchemaVersion - 1 << ",\"key\":\""
          << rec.key << "\",\"ipc\":1.0,\"seconds\":0.1}";
    }
    why.clear();
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out, &why));
    EXPECT_NE(why.find("schema"), std::string::npos);

    // Truncated/garbage file: miss with a reason, not a crash.
    {
        std::ofstream f(cache.path(hash),
                        std::ios::binary | std::ios::trunc);
        f << "{\"schema\":" << kCellSchemaVersion << ",";
    }
    why.clear();
    EXPECT_FALSE(cache.lookup(hash, rec.key, &out, &why));
    EXPECT_NE(why.find("unparseable"), std::string::npos);
}

// ---- RunSummary equivalence -----------------------------------------

TEST(RunSummaryTest, MatchesFullRunResultMetrics)
{
    RunResult base;
    base.cores.push_back({10000, 20000});
    base.llc.loadMiss = 800;
    base.llc.rfoMiss = 200;

    RunResult pf;
    pf.cores.push_back({10000, 15000});
    pf.llc.loadMiss = 350;
    pf.llc.rfoMiss = 50;
    pf.l1d.pfIssued = 500;
    pf.l1d.pfFilled = 400;
    pf.l1d.pfUseful = 300;
    pf.l1d.pfLate = 20;
    pf.l2.pfIssued = 100;
    pf.l2.pfFilled = 80;
    pf.l2.pfUseful = 40;
    pf.l2.pfLate = 4;

    PrefetchMetrics full = computeMetrics(base, pf);
    PrefetchMetrics summarized =
        computeMetrics(summarize(base), summarize(pf));

    EXPECT_DOUBLE_EQ(full.speedup, summarized.speedup);
    EXPECT_DOUBLE_EQ(full.accuracy, summarized.accuracy);
    EXPECT_DOUBLE_EQ(full.coverage, summarized.coverage);
    EXPECT_DOUBLE_EQ(full.lateFraction, summarized.lateFraction);
    EXPECT_EQ(full.pfIssued, summarized.pfIssued);
    EXPECT_EQ(full.pfFilled, summarized.pfFilled);
    EXPECT_EQ(full.pfUseful, summarized.pfUseful);
    EXPECT_EQ(full.pfLate, summarized.pfLate);
    EXPECT_EQ(full.llcMissBase, summarized.llcMissBase);
    EXPECT_EQ(full.llcMissPf, summarized.llcMissPf);
}

// ---- end to end -----------------------------------------------------

Campaign
tinyCampaign()
{
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"tiny","prefetchers":["ip_stride"],)"
        R"("workloads":["leslie3d","mcf"],)"
        R"("warmup":500,"sim":2000})"));
    return expandCampaign(spec);
}

TEST(CampaignEndToEnd, SecondRunIsAllCacheHitsAndByteIdentical)
{
    Campaign campaign = tinyCampaign();
    ResultCache cache(freshDir("campaign_e2e"));

    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;

    CampaignRunStats first = runCampaign(campaign, cache, opt);
    EXPECT_EQ(first.executed, 4u); // 2 cells + 2 baselines
    EXPECT_EQ(first.cacheHits, 0u);

    CampaignRunStats second = runCampaign(campaign, cache, opt);
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.cacheHits, 4u);

    CampaignReport r1 = buildReport(campaign, cache, nullptr);
    CampaignReport r2 = buildReport(campaign, cache, nullptr);
    EXPECT_EQ(r1.json, r2.json);
    EXPECT_EQ(r1.csv, r2.csv);
    ASSERT_EQ(r1.suites.size(), 1u);
    EXPECT_EQ(r1.suites[0].prefetcher, "ip_stride");
    EXPECT_EQ(r1.suites[0].workloads, 2u);
    EXPECT_GT(r1.suites[0].summary.speedup, 0.0);
}

TEST(CampaignEndToEnd, ShardsPartitionAndAggregateIdentically)
{
    Campaign campaign = tinyCampaign();

    ResultCache whole(freshDir("campaign_whole"));
    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    runCampaign(campaign, whole, opt);
    CampaignReport expected = buildReport(campaign, whole, nullptr);

    ResultCache sharded(freshDir("campaign_sharded"));
    CampaignRunOptions shard0 = opt;
    shard0.shardIndex = 0;
    shard0.shardCount = 2;
    CampaignRunOptions shard1 = opt;
    shard1.shardIndex = 1;
    shard1.shardCount = 2;

    CampaignRunStats s0 = runCampaign(campaign, sharded, shard0);
    EXPECT_EQ(s0.executed, 2u);
    EXPECT_EQ(s0.otherShards, 2u);

    // Before the sibling shard finishes, aggregation must refuse.
    EXPECT_DEATH(buildReport(campaign, sharded, nullptr),
                 "not in cache");

    CampaignRunStats s1 = runCampaign(campaign, sharded, shard1);
    EXPECT_EQ(s1.executed, 2u);

    CampaignReport merged = buildReport(campaign, sharded, nullptr);
    EXPECT_EQ(merged.json, expected.json);
    EXPECT_EQ(merged.csv, expected.csv);

    CampaignCacheStatus status = campaignStatus(campaign, sharded);
    EXPECT_EQ(status.cached, 4u);
    EXPECT_EQ(status.missing, 0u);
}

TEST(CampaignEndToEnd, DuplicateAxisEntriesExecuteOnce)
{
    // A careless spec can name the same workload twice; the duplicate
    // cells share one hash and must collapse to one job (two
    // concurrent jobs would race on the same cache file) while the
    // report still renders every expanded cell.
    CampaignSpec spec = parseCampaignSpec(parseSpecText(
        R"({"name":"dup","prefetchers":["ip_stride"],)"
        R"("workloads":["mcf","mcf"],"warmup":500,"sim":2000})"));
    Campaign campaign = expandCampaign(spec);
    ASSERT_EQ(campaign.cells.size(), 2u);
    EXPECT_EQ(campaign.cells[0].hash, campaign.cells[1].hash);
    EXPECT_EQ(campaign.baselines.size(), 1u);

    ResultCache cache(freshDir("campaign_dup"));
    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    CampaignRunStats stats = runCampaign(campaign, cache, opt);
    EXPECT_EQ(stats.executed, 2u); // 1 baseline + 1 unique cell
    EXPECT_EQ(stats.cacheHits, 0u);

    CampaignReport report = buildReport(campaign, cache, nullptr);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(parseJson(report.json, &doc, &error)) << error;
    EXPECT_EQ(doc.find("cells")->items().size(), 2u);
}

TEST(CampaignEndToEnd, CompareSectionReportsZeroDeltaAgainstSelf)
{
    Campaign campaign = tinyCampaign();
    ResultCache cache(freshDir("campaign_cmp"));
    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    runCampaign(campaign, cache, opt);

    CampaignReport plain = buildReport(campaign, cache, nullptr);
    JsonValue previous;
    std::string error;
    ASSERT_TRUE(parseJson(plain.json, &previous, &error)) << error;

    CampaignReport compared = buildReport(campaign, cache, &previous);
    JsonValue doc;
    ASSERT_TRUE(parseJson(compared.json, &doc, &error)) << error;
    const JsonValue *compare = doc.find("compare");
    ASSERT_NE(compare, nullptr);
    const auto &rows = compare->find("suites")->items();
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_DOUBLE_EQ(rows[0].find("speedup_delta")->asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(
        compare->find("rows_without_previous")->asNumber(), 0.0);
}

// ---- L1+L2 pairs and system overrides -------------------------------

CampaignRunOptions
quietRun()
{
    CampaignRunOptions opt;
    opt.threads = 2;
    opt.verbose = false;
    return opt;
}

/** The deterministic slice of a summary (no wall-clock fields). */
void
expectSameSummary(const RunSummary &a, const RunSummary &b)
{
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.pfIssued, b.pfIssued);
    EXPECT_EQ(a.pfFilled, b.pfFilled);
    EXPECT_EQ(a.pfUseful, b.pfUseful);
    EXPECT_EQ(a.pfLate, b.pfLate);
    EXPECT_EQ(a.llcDemandMiss, b.llcDemandMiss);
    EXPECT_EQ(a.pfDroppedHit, b.pfDroppedHit);
    EXPECT_EQ(a.cyclesExecuted + a.cyclesSkipped,
              b.cyclesExecuted + b.cyclesSkipped);
    EXPECT_EQ(a.schemes.size(), b.schemes.size());
}

TEST(CampaignPairs, PairCellEqualsRunnerRunMix)
{
    Campaign campaign = expandCampaign(parseCampaignSpec(parseSpecText(
        R"({"name":"pair","prefetchers":[["ip_stride","bingo"]],)"
        R"("workloads":["leslie3d"],"warmup":1000,"sim":4000})")));
    ASSERT_EQ(campaign.cells.size(), 1u);
    EXPECT_EQ(campaign.cells[0].prefetcher, "ip_stride+bingo");
    EXPECT_EQ(campaign.cells[0].level, "l1");

    std::vector<CampaignJob> jobs = expandCampaignJobs(campaign);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[1].label, "ip_stride+bingo x leslie3d (1c, l1)");
    CellRecord rec = executeCampaignJob(jobs[1]);

    Runner runner(campaign.spec.run);
    std::vector<WorkloadDef> mix = {findWorkload("leslie3d")};
    expectSameSummary(rec.summary,
                      summarize(runner.runMix(mix, PfSpec{"ip_stride", "bingo"})));
    EXPECT_GT(rec.summary.pfIssued, 0u);
}

TEST(CampaignSystems, SystemCellEqualsRunnerOnOverriddenConfig)
{
    Campaign campaign = expandCampaign(parseCampaignSpec(parseSpecText(
        R"({"name":"sys","prefetchers":["gaze"],"workloads":["mcf"],)"
        R"("systems":{"small":{"dram_mtps":800,"l2_bytes":131072,)"
        R"("llc_bytes_per_core":524288}},"warmup":500,"sim":2000})")));
    ASSERT_EQ(campaign.cells.size(), 1u);
    EXPECT_EQ(campaign.cells[0].system, "small");

    std::vector<CampaignJob> jobs = expandCampaignJobs(campaign);
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].label, "baseline x mcf (1c, small)");
    EXPECT_EQ(jobs[1].label, "gaze x mcf (1c, l1, small)");

    RunConfig cfg = campaign.spec.run;
    cfg.system.dram.mtps = 800;
    cfg.system.l2Bytes = 128 * 1024;
    cfg.system.llcBytesPerCore = 512 * 1024;
    Runner runner(cfg);
    const WorkloadDef &mcf = findWorkload("mcf");
    RunSummary cell = executeCampaignJob(jobs[1]).summary;
    expectSameSummary(cell, summarize(runner.run(mcf, PfSpec{"gaze"})));
    expectSameSummary(executeCampaignJob(jobs[0]).summary,
                      summarize(runner.baseline(mcf)));

    // ... and differs from the same cell on Table II.
    Runner table2(campaign.spec.run);
    EXPECT_NE(cell.ipc, summarize(table2.run(mcf, PfSpec{"gaze"})).ipc);
}

TEST(CampaignSystems, SharedDefaultSystemCellsRunOnce)
{
    // "base" and "same" resolve to the same config: their cells share
    // hashes, run once, and both systems still get report rows.
    Campaign campaign = expandCampaign(parseCampaignSpec(parseSpecText(
        R"({"name":"dedup","prefetchers":["ip_stride"],)"
        R"("workloads":["leslie3d","mcf"],"systems":{"base":{},)"
        R"("same":{"dram_mtps":3200},"fast":{"dram_mtps":6400}},)"
        R"("warmup":500,"sim":2000})")));
    ASSERT_EQ(campaign.cells.size(), 6u);
    EXPECT_EQ(campaign.cells[0].hash, campaign.cells[2].hash);
    EXPECT_NE(campaign.cells[0].hash, campaign.cells[4].hash);
    EXPECT_EQ(campaign.baselines.size(), 4u);
    EXPECT_EQ(expandCampaignJobs(campaign).size(), 8u);

    ResultCache cache(freshDir("campaign_system_dedup"));
    CampaignRunStats stats = runCampaign(campaign, cache, quietRun());
    EXPECT_EQ(stats.executed, 8u);
    EXPECT_EQ(runCampaign(campaign, cache, quietRun()).cacheHits, 8u);

    CampaignReport report = buildReport(campaign, cache, nullptr);
    ASSERT_EQ(report.suites.size(), 3u); // one suite per system
    EXPECT_EQ(report.suites[0].system, "base");
    EXPECT_EQ(report.suites[1].system, "same");
    EXPECT_EQ(report.suites[2].system, "fast");
    EXPECT_EQ(report.suites[0].summary.speedup,
              report.suites[1].summary.speedup);

    // --compare matches rows by system too.
    JsonValue previous;
    std::string error;
    ASSERT_TRUE(parseJson(report.json, &previous, &error)) << error;
    JsonValue doc;
    ASSERT_TRUE(parseJson(buildReport(campaign, cache, &previous).json,
                          &doc, &error))
        << error;
    const JsonValue *compare = doc.find("compare");
    ASSERT_NE(compare, nullptr);
    const auto &rows = compare->find("suites")->items();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[2].find("system")->asString(), "fast");
    EXPECT_DOUBLE_EQ(rows[2].find("speedup_delta")->asNumber(), 0.0);
}

} // namespace
} // namespace gaze
