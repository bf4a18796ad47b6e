/**
 * @file
 * Harness tests: the §IV-A3 metric formulas on synthetic run results,
 * geometric-mean aggregation, table formatting, baseline memoization
 * in the Runner, and the Table I / Table IV storage model.
 */

#include <gtest/gtest.h>

#include "harness/metrics.hh"
#include "harness/runner.hh"
#include "harness/storage_model.hh"
#include "harness/table.hh"
#include "workloads/generators.hh"

namespace gaze
{
namespace
{

RunResult
makeResult(double ipc, uint64_t llc_miss)
{
    RunResult r;
    CoreResult c;
    c.instructions = 1000000;
    c.cycles = static_cast<uint64_t>(1000000 / ipc);
    r.cores.push_back(c);
    r.llc.loadMiss = llc_miss;
    return r;
}

TEST(Metrics, SpeedupFromIpcRatio)
{
    RunResult base = makeResult(1.0, 1000);
    RunResult pf = makeResult(1.3, 700);
    PrefetchMetrics m = computeMetrics(base, pf);
    EXPECT_NEAR(m.speedup, 1.3, 0.01);
}

TEST(Metrics, AccuracyCountsBothLevelsAndLate)
{
    RunResult base = makeResult(1.0, 1000);
    RunResult pf = makeResult(1.2, 600);
    // na=60 useful of nb-implied 100 fills at L1; ma=30 of 50 at L2;
    // 10 late ones count as useful too.
    pf.l1d.pfFilled = 100;
    pf.l1d.pfUseful = 60;
    pf.l1d.pfLate = 10;
    pf.l2.pfFilled = 50;
    pf.l2.pfUseful = 30;
    PrefetchMetrics m = computeMetrics(base, pf);
    // (60+30+10) / (100+50+10)
    EXPECT_NEAR(m.accuracy, 100.0 / 160.0, 1e-9);
}

TEST(Metrics, CoverageIsLlcMissReduction)
{
    RunResult base = makeResult(1.0, 1000);
    RunResult pf = makeResult(1.2, 400);
    PrefetchMetrics m = computeMetrics(base, pf);
    EXPECT_NEAR(m.coverage, 0.6, 1e-9);
}

TEST(Metrics, CoverageClampsWhenMissesIncrease)
{
    RunResult base = makeResult(1.0, 1000);
    RunResult pf = makeResult(0.9, 1500); // pollution
    PrefetchMetrics m = computeMetrics(base, pf);
    EXPECT_DOUBLE_EQ(m.coverage, 0.0);
}

TEST(Metrics, LateFraction)
{
    RunResult base = makeResult(1.0, 1000);
    RunResult pf = makeResult(1.1, 800);
    pf.l1d.pfUseful = 90;
    pf.l1d.pfLate = 10;
    PrefetchMetrics m = computeMetrics(base, pf);
    EXPECT_NEAR(m.lateFraction, 0.1, 1e-9);
}

TEST(Metrics, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({1.2}), 1.2, 1e-9);
    EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-9);
}

TEST(Table, AlignsColumns)
{
    TextTable t({"name", "speedup"});
    t.addRow({"gaze", "1.277"});
    t.addRow({"pmp", "1.150"});
    std::string s = t.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("gaze"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
    // Columns aligned: "1.277" and "1.150" start at the same column.
    size_t l1 = s.find("1.277");
    size_t l2 = s.find("1.150");
    size_t col1 = l1 - s.rfind('\n', l1) - 1;
    size_t col2 = l2 - s.rfind('\n', l2) - 1;
    EXPECT_EQ(col1, col2);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(TextTable::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::pct(0.567, 1), "56.7%");
}

TEST(TableDeath, RowWidthMismatch)
{
    TextTable t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

// ----------------------------------------------------------- storage

TEST(StorageModel, TableITotalsMatchPaper)
{
    auto rows = gazeStorageBreakdown();
    ASSERT_EQ(rows.size(), 5u);
    double total_kib = 0;
    for (const auto &r : rows)
        total_kib += r.kib();
    EXPECT_NEAR(total_kib, 4.46, 0.05);

    // Spot-check the paper's per-structure bytes.
    EXPECT_EQ(rows[0].structure, "FT");
    EXPECT_EQ(rows[0].bits / 8, 456u);
    EXPECT_EQ(rows[2].structure, "PHT");
    EXPECT_EQ(rows[2].bits / 8, 2304u);
    EXPECT_EQ(rows[4].structure, "PB");
    EXPECT_EQ(rows[4].bits / 8, 668u);
}

TEST(StorageModel, SchemeOrderingMatchesTableIV)
{
    auto rows = evaluatedSchemeStorage();
    ASSERT_GE(rows.size(), 8u);
    double gaze_kib = 0, bingo_kib = 0, ipcp_kib = 0;
    for (const auto &r : rows) {
        if (r.scheme == "gaze")
            gaze_kib = r.kib();
        if (r.scheme == "bingo")
            bingo_kib = r.kib();
        if (r.scheme == "ipcp")
            ipcp_kib = r.kib();
    }
    // The paper's headline: Gaze is ~31x below Bingo.
    EXPECT_GT(bingo_kib / gaze_kib, 20.0);
    EXPECT_LT(ipcp_kib, gaze_kib);
}

// ------------------------------------------------------------- runner

TEST(Runner, BaselineIsMemoized)
{
    RunConfig cfg;
    cfg.warmupInstr = 5000;
    cfg.simInstr = 15000;
    Runner runner(cfg);

    int built = 0;
    WorkloadDef w{"tiny-stream", "test", [&built] {
                      ++built;
                      StreamParams p;
                      p.records = 60000;
                      return genStream(p);
                  }};
    RunResult a = runner.baseline(w);
    RunResult b = runner.baseline(w);
    EXPECT_EQ(built, 1); // the second ask came from the memo
    EXPECT_GT(a.ipc(), 0.0);
    EXPECT_EQ(a.instructionsRetired, b.instructionsRetired);
    EXPECT_DOUBLE_EQ(a.ipc(), b.ipc());
}

TEST(Runner, EvaluateProducesSaneMetrics)
{
    RunConfig cfg;
    cfg.warmupInstr = 8000;
    cfg.simInstr = 25000;
    Runner runner(cfg);

    WorkloadDef w{"tiny-stream2", "test", [] {
                      StreamParams p;
                      p.seed = 9;
                      p.records = 80000;
                      return genStream(p);
                  }};
    PrefetchMetrics m = runner.evaluate(w, PfSpec{"gaze"});
    EXPECT_GT(m.speedup, 1.0);
    EXPECT_GT(m.accuracy, 0.5);
    EXPECT_LE(m.accuracy, 1.0);
    EXPECT_GE(m.coverage, 0.0);
    EXPECT_LE(m.coverage, 1.0);
    EXPECT_GT(m.pfFilled, 0u);
}

TEST(Runner, MixEvaluationRuns)
{
    RunConfig cfg;
    cfg.warmupInstr = 4000;
    cfg.simInstr = 10000;
    Runner runner(cfg);

    WorkloadDef w1{"mix-a", "test", [] {
                       StreamParams p;
                       p.seed = 1;
                       p.records = 50000;
                       return genStream(p);
                   }};
    WorkloadDef w2{"mix-b", "test", [] {
                       StreamParams p;
                       p.seed = 2;
                       p.records = 50000;
                       return genStream(p);
                   }};
    PrefetchMetrics m = runner.evaluateMix({w1, w2}, PfSpec{"ip_stride"});
    EXPECT_GT(m.speedup, 0.5);
    EXPECT_LT(m.speedup, 4.0);
}

TEST(Runner, PfSpecLabels)
{
    EXPECT_EQ(PfSpec{"gaze"}.label(), "gaze");
    EXPECT_EQ((PfSpec{"gaze", "bingo"}).label(), "gaze+bingo");
    EXPECT_TRUE(PfSpec{}.isNone());
}

TEST(Runner, SuiteSummaryAggregates)
{
    RunConfig cfg;
    cfg.warmupInstr = 4000;
    cfg.simInstr = 10000;
    Runner runner(cfg);

    std::vector<WorkloadDef> suite;
    for (uint64_t s = 1; s <= 2; ++s)
        suite.push_back({"s" + std::to_string(s), "test", [s] {
                             StreamParams p;
                             p.seed = s;
                             p.records = 40000;
                             return genStream(p);
                         }});
    std::vector<PrefetchMetrics> cells;
    for (const auto &w : suite)
        cells.push_back(runner.evaluate(w, PfSpec{"gaze"}));
    SuiteSummary sum = summarizeSuite({&cells[0], &cells[1]});
    EXPECT_GT(sum.speedup, 0.9);
    EXPECT_GE(sum.accuracy, 0.0);
    EXPECT_DOUBLE_EQ(sum.speedup,
                     geomean({cells[0].speedup, cells[1].speedup}));
    EXPECT_DOUBLE_EQ(sum.accuracy,
                     (cells[0].accuracy + cells[1].accuracy) / 2);
    EXPECT_DOUBLE_EQ(sum.coverage,
                     (cells[0].coverage + cells[1].coverage) / 2);
    EXPECT_DOUBLE_EQ(sum.lateFraction,
                     (cells[0].lateFraction + cells[1].lateFraction) / 2);
}

} // namespace
} // namespace gaze
