/**
 * @file
 * Tests for the lifetime simulator: the DUE/SDC classifier, replacement
 * policies, determinism, and the headline qualitative claims (repair
 * halves DUEs; ReplB is far more aggressive than ReplA; the accelerated
 * population dominates failure counts).
 *
 * Trial counts and seeds are baselined on the counter-based per-trial
 * derivation (`Rng::forkAt(seed, t)`) the parallel engine uses: every
 * summary below is a deterministic function of (config, trials, seed)
 * alone, so the statistical assertions were sized by inspecting those
 * exact runs. If a seed changes, re-check the margins — the counts
 * (24-48 trials) are chosen so each claim holds with slack, not just
 * barely.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "repair/freefault_repair.h"
#include "repair/ppr_repair.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"

namespace relaxfault {
namespace {

DramGeometry
geom()
{
    return DramGeometry{};
}

FaultRegion
bitRegion(unsigned bank, uint32_t row, uint16_t col, uint32_t mask)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::of({row});
    cluster.cols = ColSet::of({col});
    cluster.bitMask = mask;
    return FaultRegion({cluster});
}

FaultRegion
bankRegion(unsigned bank)
{
    RegionCluster cluster;
    cluster.bankMask = 1u << bank;
    cluster.rows = RowSet::allRows();
    cluster.cols = ColSet::allCols();
    return FaultRegion({cluster});
}

TEST(Classifier, NoOthersNoError)
{
    const ReliabilityClassifier classifier(geom(), ReliabilityParams{});
    const FaultRegion region = bitRegion(0, 1, 2, 0xff);
    const auto outcome = classifier.classify(3, region, {});
    EXPECT_FALSE(outcome.due);
    EXPECT_EQ(outcome.sdcExpectation, 0.0);
}

TEST(Classifier, SameDeviceNeverConflicts)
{
    const ReliabilityClassifier classifier(geom(), ReliabilityParams{});
    const FaultRegion a = bitRegion(0, 1, 2, 0xff);
    const FaultRegion b = bitRegion(0, 1, 2, 0xff);
    const auto outcome = classifier.classify(3, a, {{3, &b}});
    EXPECT_FALSE(outcome.due);
}

TEST(Classifier, OverlappingDevicesAreDue)
{
    ReliabilityParams params;
    const ReliabilityClassifier classifier(geom(), params);
    const FaultRegion a = bitRegion(0, 1, 2, 0x0f);
    const FaultRegion b = bitRegion(0, 1, 2, 0xf0);  // Same symbol 0.
    const auto outcome = classifier.classify(3, a, {{4, &b}});
    EXPECT_TRUE(outcome.due);
    EXPECT_NEAR(outcome.sdcExpectation, params.pairMiscorrectProb, 1e-12);
}

TEST(Classifier, DisjointSymbolsNoDue)
{
    const ReliabilityClassifier classifier(geom(), ReliabilityParams{});
    const FaultRegion a = bitRegion(0, 1, 2, 0x000000ff);
    const FaultRegion b = bitRegion(0, 1, 2, 0x0000ff00);
    const auto outcome = classifier.classify(3, a, {{4, &b}});
    EXPECT_FALSE(outcome.due);
}

TEST(Classifier, DifferentBankNoDue)
{
    const ReliabilityClassifier classifier(geom(), ReliabilityParams{});
    const FaultRegion a = bitRegion(0, 1, 2, 0xff);
    const FaultRegion b = bitRegion(1, 1, 2, 0xff);
    const auto outcome = classifier.classify(3, a, {{4, &b}});
    EXPECT_FALSE(outcome.due);
}

TEST(Classifier, TripleOverlapAddsSdc)
{
    ReliabilityParams params;
    const ReliabilityClassifier classifier(geom(), params);
    const FaultRegion incoming = bankRegion(2);
    const FaultRegion b = bitRegion(2, 100, 50, 0x1);
    const FaultRegion c = bitRegion(2, 100, 50, 0x2);  // Same symbol.
    const auto outcome =
        classifier.classify(1, incoming, {{4, &b}, {5, &c}});
    EXPECT_TRUE(outcome.due);
    EXPECT_NEAR(outcome.sdcExpectation,
                params.pairMiscorrectProb + params.tripleMiscorrectProb,
                1e-12);
}

TEST(Classifier, TripleNeedsThreeDistinctDevices)
{
    ReliabilityParams params;
    const ReliabilityClassifier classifier(geom(), params);
    const FaultRegion incoming = bankRegion(2);
    const FaultRegion b = bitRegion(2, 100, 50, 0x1);
    const FaultRegion c = bitRegion(2, 101, 50, 0x2);
    // Two faults on the SAME device: merged, no triple.
    const auto outcome =
        classifier.classify(1, incoming, {{4, &b}, {4, &c}});
    EXPECT_TRUE(outcome.due);
    EXPECT_NEAR(outcome.sdcExpectation, params.pairMiscorrectProb, 1e-12);
}

LifetimeConfig
smallConfig(double fit_scale = 1.0)
{
    LifetimeConfig config;
    config.nodesPerSystem = 1024;
    config.faultModel.fitScale = fit_scale;
    return config;
}

TEST(Lifetime, ZeroRatesZeroMetrics)
{
    LifetimeConfig config = smallConfig();
    config.faultModel.rates = FitRates{};  // All zero.
    config.faultModel.rates.permanentFit[0] = 1e-6;  // Nearly zero.
    const LifetimeSimulator simulator(config);
    Rng rng(1);
    const LifetimeMetrics metrics = simulator.runSystemTrial({}, rng);
    EXPECT_EQ(metrics.dues, 0.0);
    EXPECT_EQ(metrics.replacements, 0.0);
    EXPECT_EQ(metrics.faultyNodes, 0.0);
}

TEST(Lifetime, DeterministicAcrossRuns)
{
    const LifetimeSimulator simulator(smallConfig(10.0));
    Rng rng_a(7);
    Rng rng_b(7);
    const LifetimeMetrics a = simulator.runSystemTrial({}, rng_a);
    const LifetimeMetrics b = simulator.runSystemTrial({}, rng_b);
    EXPECT_EQ(a.dues, b.dues);
    EXPECT_EQ(a.sdcs, b.sdcs);
    EXPECT_EQ(a.replacements, b.replacements);
    EXPECT_EQ(a.permanentFaults, b.permanentFaults);
}

TEST(Lifetime, FaultyNodeCountMatchesModel)
{
    LifetimeConfig config = smallConfig();
    config.faultModel.accelerationEnabled = false;
    const LifetimeSimulator simulator(config);
    const LifetimeSummary summary = simulator.runTrials(32, {}, 99);
    const double lambda = 20e-9 * 144 * config.faultModel.missionHours;
    const double expected = 1024 * (1.0 - std::exp(-lambda));
    EXPECT_NEAR(summary.faultyNodes.mean(), expected,
                5 * summary.faultyNodes.stderror() + 2.0);
}

TEST(Lifetime, RepairReducesDues)
{
    LifetimeConfig config = smallConfig(10.0);
    const LifetimeSimulator simulator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};

    const LifetimeSummary no_repair = simulator.runTrials(32, {}, 4242);
    const LifetimeSummary repaired = simulator.runTrials(
        32,
        [&] {
            return std::make_unique<RelaxFaultRepair>(
                geometry, llc, RepairBudget{4, 32768}, true);
        },
        4242);
    EXPECT_GT(no_repair.dues.mean(), 0.0);
    EXPECT_LT(repaired.dues.mean(), no_repair.dues.mean());
    EXPECT_LT(repaired.sdcs.mean(), no_repair.sdcs.mean());
    EXPECT_GT(repaired.repairedFaults.mean(), 0.0);
    // The vast majority of permanent faults are repairable (Fig. 10).
    EXPECT_GT(repaired.repairedFaults.mean() /
                  repaired.permanentFaults.mean(),
              0.8);
}

TEST(Lifetime, ReplBFarMoreAggressiveThanReplA)
{
    LifetimeConfig repl_a = smallConfig();
    repl_a.policy = ReplacePolicy::AfterDue;
    LifetimeConfig repl_b = smallConfig();
    repl_b.policy = ReplacePolicy::OnFrequentErrors;

    const LifetimeSummary a =
        LifetimeSimulator(repl_a).runTrials(24, {}, 5);
    const LifetimeSummary b =
        LifetimeSimulator(repl_b).runTrials(24, {}, 5);
    // Paper: ReplB replaces ~350x more DIMMs than ReplA.
    EXPECT_GT(b.replacements.mean(), 20 * (a.replacements.mean() + 0.01));
    // ReplB replaces most DIMMs with unrepaired hard-permanent faults.
    EXPECT_GT(b.replacements.mean(),
              0.4 * b.permanentFaults.mean() * 0.9);
}

TEST(Lifetime, RepairAvoidsReplBReplacements)
{
    LifetimeConfig config = smallConfig();
    config.policy = ReplacePolicy::OnFrequentErrors;
    const LifetimeSimulator simulator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};

    const LifetimeSummary no_repair = simulator.runTrials(24, {}, 6);
    const LifetimeSummary repaired = simulator.runTrials(
        24,
        [&] {
            return std::make_unique<RelaxFaultRepair>(
                geometry, llc, RepairBudget{4, 32768}, true);
        },
        6);
    // Paper: ~87% of replacements avoided.
    EXPECT_LT(repaired.replacements.mean(),
              0.4 * no_repair.replacements.mean());
}

TEST(Lifetime, AcceleratedPopulationDrivesDues)
{
    LifetimeConfig with = smallConfig();
    LifetimeConfig without = smallConfig();
    without.faultModel.accelerationEnabled = false;
    const LifetimeSummary accel =
        LifetimeSimulator(with).runTrials(40, {}, 7);
    const LifetimeSummary uniform =
        LifetimeSimulator(without).runTrials(40, {}, 7);
    // The refined model predicts far more DUEs than the uniform model
    // (the paper's Sec. 4.1.2 argument).
    EXPECT_GT(accel.dues.mean(), 3 * (uniform.dues.mean() + 0.02));
    EXPECT_GT(accel.multiDeviceFaultDimms.mean(),
              uniform.multiDeviceFaultDimms.mean());
}

TEST(Lifetime, DueReductionWithinPaperConsistentBand)
{
    // Statistical golden test: at the calibrated dueBeforeRepairProb
    // (0.5), the RelaxFault-4way DUE reduction must stay in a CI band
    // consistent with the paper's anchors — 52% at 1x FIT and 37% at
    // 10x (this reproduction measures 41-53%; see EXPERIMENTS.md). The
    // run is fixed-seed and parallel-engine deterministic, so a drift
    // outside the band means the repair/classification semantics moved,
    // not that the dice fell badly.
    LifetimeConfig config = smallConfig(10.0);
    ASSERT_EQ(config.dueBeforeRepairProb, 0.5);
    const LifetimeSimulator simulator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};

    constexpr unsigned kTrials = 48;
    constexpr uint64_t kSeed = 160514;  // Re-baseline margins if changed.
    const LifetimeSummary no_repair =
        simulator.runTrials(kTrials, {}, kSeed);
    const LifetimeSummary repaired = simulator.runTrials(
        kTrials,
        [&] {
            return std::make_unique<RelaxFaultRepair>(
                geometry, llc, RepairBudget{4, 32768}, true);
        },
        kSeed);

    ASSERT_GT(no_repair.dues.mean(), 0.0);
    const double reduction =
        1.0 - repaired.dues.mean() / no_repair.dues.mean();
    // Delta-method 95% half-width of the ratio (independent runs).
    const double ratio = repaired.dues.mean() / no_repair.dues.mean();
    const double rel_var =
        std::pow(repaired.dues.stderror() / repaired.dues.mean(), 2) +
        std::pow(no_repair.dues.stderror() / no_repair.dues.mean(), 2);
    const double half_width = 1.96 * ratio * std::sqrt(rel_var);

    // The band [reduction +/- CI] must overlap the paper's 37-52%
    // bracket, and the point estimate must not stray outside 25-70%.
    EXPECT_GE(reduction + half_width, 0.37);
    EXPECT_LE(reduction - half_width, 0.52);
    EXPECT_GT(reduction, 0.25);
    EXPECT_LT(reduction, 0.70);
}

/**
 * Golden pin of the Fig. 12b repair matrix: trial 0 of each row at 10x
 * FIT, ReplA, 1024 nodes, seed 1206, with the paper's 8 MiB LLC and 2 MiB
 * repair cap. The literals were recorded before the repair walks became
 * streaming and early-exit; any change to sampling, classification or
 * line allocation that moves a single count fails here, not only in the
 * benchmark's digests.
 */
TEST(Lifetime, RepairMatrixTrialZeroIsPinned)
{
    const LifetimeConfig config = smallConfig(10.0);
    ASSERT_EQ(config.policy, ReplacePolicy::AfterDue);
    const LifetimeSimulator simulator(config);
    const DramGeometry geometry = config.faultModel.geometry;
    const DramAddressMap map = makeAddressMap("fig7a", geometry);
    const CacheGeometry llc{8 * 1024 * 1024, 16, 64};
    const uint64_t cap_lines = 2 * 1024 * 1024 / llc.lineBytes;
    auto freeFault = [&](unsigned ways) {
        return LifetimeSimulator::MechanismFactory([=] {
            return std::make_unique<FreeFaultRepair>(
                map, llc, RepairBudget{ways, cap_lines}, true);
        });
    };
    auto relaxFault = [&](unsigned ways) {
        return LifetimeSimulator::MechanismFactory([=] {
            return std::make_unique<RelaxFaultRepair>(
                geometry, llc, RepairBudget{ways, cap_lines}, true);
        });
    };

    struct Row
    {
        const char *label;
        LifetimeSimulator::MechanismFactory factory;
        // faultyNodes, multiDeviceFaultDimms, dues, replacements,
        // repairedFaults, permanentFaults, fullyRepairedNodes,
        // budgetExhausted, degradedToRetirement, degradedDues, failStops
        std::array<double, 11> expected;
    };
    const std::vector<Row> rows = {
        {"no-repair", {}, {801, 136, 6, 2, 0, 1588, 0, 0, 0, 0, 0}},
        {"PPR", [&] { return std::make_unique<PprRepair>(geometry); },
         {804, 137, 5, 2, 1190, 1590, 475, 400, 0, 400, 0}},
        {"FreeFault-1way", freeFault(1),
         {804, 137, 5, 2, 1384, 1590, 616, 206, 0, 206, 0}},
        {"RelaxFault-1way", relaxFault(1),
         {804, 137, 5, 2, 1434, 1590, 661, 156, 0, 156, 0}},
        {"FreeFault-4way", freeFault(4),
         {804, 137, 5, 2, 1454, 1590, 676, 136, 0, 136, 0}},
        {"RelaxFault-4way", relaxFault(4),
         {802, 135, 5, 2, 1525, 1588, 741, 63, 0, 63, 0}},
    };
    TrialRunOptions run;
    run.parallel.threads = 1;
    for (const Row &row : rows) {
        const LifetimeMetrics m =
            simulator.runTrialRange(0, 1, row.factory, 1206, run).front();
        const std::array<double, 11> got = {
            m.faultyNodes, m.multiDeviceFaultDimms, m.dues,
            m.replacements, m.repairedFaults, m.permanentFaults,
            m.fullyRepairedNodes, m.budgetExhausted,
            m.degradedToRetirement, m.degradedDues, m.failStops};
        EXPECT_EQ(got, row.expected) << row.label;
    }
}

TEST(Lifetime, MetricArithmetic)
{
    LifetimeMetrics a;
    a.dues = 2;
    a.sdcs = 0.5;
    LifetimeMetrics b;
    b.dues = 4;
    b.sdcs = 1.5;
    a += b;
    EXPECT_EQ(a.dues, 6.0);
    a /= 2.0;
    EXPECT_EQ(a.dues, 3.0);
    EXPECT_EQ(a.sdcs, 1.0);
}

} // namespace
} // namespace relaxfault
