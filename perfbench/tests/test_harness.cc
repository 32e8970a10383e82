/**
 * @file
 * Tests of the benchmark harness itself: exact percentiles, digest pins,
 * span self time, and that the timing wrappers and traced replays leave
 * every simulated result bit-identical.
 *
 *   python3 perfbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include "digest.h"
#include "quantiles.h"
#include "spans.h"
#include "workloads.h"
#include "wrappers.h"

using namespace perfbench;
using namespace relaxfault;

TEST(Samples, NearestRankOnKnownSamples)
{
    Samples samples;
    for (uint64_t v = 100; v >= 1; --v)
        samples.add(v);
    EXPECT_EQ(samples.count(), 100u);
    EXPECT_EQ(samples.percentile(0), 1u);
    EXPECT_EQ(samples.percentile(50), 50u);
    EXPECT_EQ(samples.percentile(99), 99u);
    EXPECT_EQ(samples.percentile(100), 100u);
    EXPECT_EQ(Samples().percentile(50), 0u);
}

TEST(Samples, LargeValuesAndMergeStayExact)
{
    // Half the samples below the per-nanosecond bins' limit, half above.
    Samples low;
    Samples high;
    for (uint64_t i = 1; i <= 50; ++i) {
        low.add(i);
        high.add(Samples::kBins + 1000 * i);
    }
    low.merge(high);
    EXPECT_EQ(low.count(), 100u);
    EXPECT_EQ(low.percentile(50), 50u);
    EXPECT_EQ(low.percentile(51), Samples::kBins + 1000);
    EXPECT_EQ(low.percentile(99), Samples::kBins + 49000);
    EXPECT_EQ(low.percentile(100), Samples::kBins + 50000);
}

TEST(Samples, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Digest, AlteredDigestIsAFailure)
{
    const std::string pinned = "8aeffe4d7efbbcd0";
    std::string why;
    EXPECT_TRUE(matchesPin("lifetime_10x", 1206, pinned, &why));
    EXPECT_FALSE(matchesPin("lifetime_10x", 1206, "8aeffe4d7efbbcd1", &why));
    EXPECT_NE(why.find("differs from pinned"), std::string::npos);
    // Seeds without a pin only get the replay and repeat checks.
    EXPECT_TRUE(matchesPin("lifetime_10x", 1207, "anything", &why));
}

TEST(Digest, SeesEveryLifetimeStatistic)
{
    LifetimeSummary a;
    LifetimeMetrics m;
    m.dues = 3;
    a.addTrial(m);
    LifetimeSummary b = a;
    EXPECT_EQ(Digest().add(a).hex(), Digest().add(b).hex());
    LifetimeMetrics n;
    n.failStops = 1;
    b.addTrial(n);
    a.addTrial(LifetimeMetrics());
    EXPECT_NE(Digest().add(a).hex(), Digest().add(b).hex());
}

TEST(SpanTracer, SelfTimeIsSpanMinusChildren)
{
    SpanTracer tracer;
    const auto outer = tracer.name("outer");
    const auto child = tracer.name("child");
    tracer.open(outer);
    const uint64_t start = nowNs();
    tracer.leaf(child, start, start + 5000);   // Kept: >= 1 us.
    tracer.leaf(child, start, start + 10);     // Folded: < 1 us.
    tracer.close();
    const SpanTracer::NameStats &o = tracer.stats(outer);
    const SpanTracer::NameStats &c = tracer.stats(child);
    EXPECT_EQ(c.calls, 2u);
    EXPECT_EQ(c.busyNs, 5010u);
    EXPECT_EQ(c.durations.percentile(100), 5000u);
    EXPECT_EQ(o.selfNs, o.busyNs - 5010);
    EXPECT_EQ(tracer.storedSpans(), 2u);   // outer + the long child.
}

namespace {

/** A small 10x-FIT system: fast, but every mechanism does real work. */
LifetimeConfig
smallConfig()
{
    return lifetimeConfig(512, 10.0);
}

} // namespace

TEST(Wrappers, TimedMechanismLeavesResultsUnchanged)
{
    const LifetimeConfig config = smallConfig();
    const LifetimeSimulator simulator(config);
    TrialRunOptions run;
    run.parallel.threads = 1;
    SpanTracer tracer;
    uint64_t successes = 0;
    for (const MatrixRow &row : matrixRows(config)) {
        const LifetimeSummary plain =
            simulator.runTrials(3, row.factory, 42, run);
        const LifetimeSummary timed = simulator.runTrials(
            3, timedFactory(row.factory, tracer, successes), 42, run);
        EXPECT_EQ(Digest().add(plain).hex(), Digest().add(timed).hex())
            << row.label;
    }
    const uint64_t tries = tracer.stats(tracer.name("repair.tryRepair")).calls;
    EXPECT_GT(successes, 0u);
    EXPECT_LE(successes, tries);
}

TEST(Wrappers, TimedStreamLeavesResultsUnchanged)
{
    PerfConfig config;
    config.instructionsPerCore = 20'000;
    config.warmupAccessesPerCore = 20'000;
    const PerfSimulator simulator(config);
    const std::vector<WorkloadParams> workloads(
        config.cores, WorkloadParams::preset("CG"));
    const PerfResult plain =
        simulator.run(workloads, LlcRepairConfig::ways(4), 1515);

    // Streams built here match the ones run() builds...
    const PerfResult rebuilt = simulator.runStreams(
        syntheticStreams(config, workloads, 1515), LlcRepairConfig::ways(4));
    EXPECT_EQ(Digest().add(plain).hex(), Digest().add(rebuilt).hex());

    // ...and wrapping them changes nothing.
    SpanTracer tracer;
    uint64_t accesses = 0;
    auto streams = syntheticStreams(config, workloads, 1515);
    for (auto &stream : streams)
        stream = std::make_unique<TimedStream>(std::move(stream), tracer,
                                               accesses);
    const PerfResult timed =
        simulator.runStreams(std::move(streams), LlcRepairConfig::ways(4));
    EXPECT_EQ(Digest().add(plain).hex(), Digest().add(timed).hex());
    EXPECT_EQ(accesses, tracer.stats(tracer.name("perf.next")).calls);
    EXPECT_GE(accesses, config.cores * config.warmupAccessesPerCore);
}

TEST(Replay, TracedClassicTrialsEqualRunTrials)
{
    const LifetimeConfig config = smallConfig();
    const LifetimeSimulator simulator(config);
    TrialRunOptions run;
    run.parallel.threads = 1;
    for (const MatrixRow &row : matrixRows(config)) {
        const LifetimeSummary expected =
            simulator.runTrials(2, row.factory, 7, run);
        SpanTracer tracer;
        LifetimeCounts counts;
        uint64_t successes = 0;
        LifetimeSummary replay;
        for (uint64_t t = 0; t < 2; ++t)
            replay.addTrial(tracedClassicTrial(
                simulator, timedFactory(row.factory, tracer, successes), 7, t,
                tracer, counts));
        EXPECT_EQ(Digest().add(expected).hex(), Digest().add(replay).hex())
            << row.label;
        EXPECT_EQ(counts.nodes, 2u * config.nodesPerSystem);
    }
}

TEST(Replay, TracedFleetTrialsEqualRunTrials)
{
    const LifetimeConfig config = lifetimeConfig(4096, 1.0);
    const FleetSimulator fleet(config);
    const LifetimeSimulator simulator(config);
    const auto factory = relaxFaultFactory(config, 4);
    FleetTrialOptions run;
    run.parallel.threads = 2;
    const LifetimeSummary expected = fleet.runTrials(4, factory, 11, run);
    SpanTracer tracer;
    LifetimeCounts counts;
    uint64_t successes = 0;
    LifetimeSummary replay;
    for (uint64_t t = 0; t < 4; ++t)
        replay.addTrial(tracedFleetTrial(fleet, simulator,
                                         timedFactory(factory, tracer,
                                                      successes),
                                         11, t, tracer, counts));
    EXPECT_EQ(Digest().add(expected).hex(), Digest().add(replay).hex());
    EXPECT_GT(counts.skipped, 0u);
    EXPECT_LT(counts.skipped, counts.nodes);
}

TEST(Datapath, SetupRepairsEveryRepairableFaultAndReadsVerify)
{
    Datapath dp = buildDatapath(3, 16384, nullptr);
    EXPECT_EQ(dp.repairableFailed, 0u);
    EXPECT_EQ(dp.lines.size(), 16384u);
    for (size_t i = 0; i < dp.lines.size(); i += 7) {
        std::array<uint8_t, 64> data{};
        const EccStatus status = dp.controller->read(dp.lines[i], data.data());
        EXPECT_NE(status, EccStatus::Uncorrectable);
        EXPECT_EQ(data, dp.shadow[i]) << "line " << i;
    }
    EXPECT_GT(dp.controller->stats().remapMerges, 0u);
    EXPECT_GT(dp.controller->stats().correctedReads, 0u);
}

TEST(Workload, DatapathAtDefaultSeedMatchesItsPin)
{
    RunOptions options;
    options.workload = "datapath_rw";
    options.seed = 7;   // The pinned seed.
    options.seconds = 1;
    const Outcome outcome = runWorkload(options);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_GT(outcome.attempted, 0u);
    const std::vector<std::string> names = {
        "setup_s", "ops_per_s", "op_us_p50", "op_us_p90", "peak_rss_mib"};
    ASSERT_EQ(outcome.metrics.size(), names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(outcome.metrics[i].name, names[i]);
        EXPECT_GT(outcome.metrics[i].value, 0.0);
    }
}
