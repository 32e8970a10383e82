/**
 * @file
 * Fleet-scale campaign bench: millions of nodes per trial through the
 * lazy skip-ahead engine (`src/fleet/`), optionally distributed over
 * forked worker processes.
 *
 * Not a paper figure — this bench exists to measure and pin the fleet
 * engine's scaling claims: trials/sec and peak RSS at `--nodes=1000000`
 * and beyond (O(faulty) memory keeps a million-node trial well under
 * 1 GiB), for the RelaxFault-4way mechanism at 1x FIT under ReplA.
 *
 *   fleet_scale --nodes=1000000 --trials=8 --workers=4 --json
 *
 * `--mode=eager` forces whole-fleet materialization (the O(fleet)
 * reference path; bit-identical results) for memory A/B runs.
 * `--workers=N` forks N worker processes over a shared-memory shard
 * ring; `--checkpoint`/`--resume`/`--shards` compose with it exactly as
 * on the fig benches, and require it (the in-process run is unsharded).
 * The JSON artifact reports trials/sec, elapsed time, and parent +
 * per-worker peak RSS.
 */

#include <algorithm>
#include <iostream>
#include <thread>

#include "campaign_bench.h"
#include "common/process.h"
#include "common/table.h"

using namespace relaxfault;
using namespace relaxfault::bench;

int
main(int argc, char **argv)
{
    const CliOptions options(argc, argv, kFleetScaleFlags);
    const auto trials =
        static_cast<unsigned>(options.getPositiveInt("trials", 8));
    const auto seed = static_cast<uint64_t>(options.getInt("seed", 1206));
    const auto nodes =
        static_cast<unsigned>(options.getPositiveInt("nodes", 1000000));
    const std::string mode_name = options.getString("mode", "lazy");
    FleetMode mode;
    if (mode_name == "lazy")
        mode = FleetMode::Lazy;
    else if (mode_name == "eager")
        mode = FleetMode::Eager;
    else
        fatal("--mode=" + mode_name + " (expected lazy | eager)");
    const unsigned workers = workerCount(options);

    LifetimeConfig config;
    config.nodesPerSystem = nodes;
    config.policy = ReplacePolicy::AfterDue;
    const FleetSimulator simulator(config);
    const FleetSimulator::MechanismFactory factory = makeFactory(
        MechanismSpec::relaxFault(4), config.faultModel.geometry);

    FleetTrialOptions run;
    run.mode = mode;
    run.parallel.threads =
        static_cast<unsigned>(options.getNonNegativeInt("threads", 0));
    run.progress = options.has("progress");
    if (workers > 0 && run.parallel.threads == 0) {
        // N workers x auto threads would oversubscribe the machine N
        // times over; split the cores across the pool instead.
        run.parallel.threads = std::max(
            1u, std::thread::hardware_concurrency() / workers);
    }

    BenchReport report(options, "fleet");
    report.record().setSeed(seed).setTrials(trials).setThreads(
        run.parallel.threads);
    report.record().setConfig("nodes", static_cast<int64_t>(nodes));
    report.record().setConfig("mode", mode_name);
    report.record().setConfig("workers", static_cast<int64_t>(workers));
    run.metrics = report.metrics();

    CampaignOptions campaign = campaignOptions(options);
    // A lone shard would starve all but one worker; results are
    // shard-split invariant, so default to one shard per worker.
    if (workers > 1 && !options.has("shards"))
        campaign.shards = workers;
    const CampaignFingerprint fingerprint = campaignFingerprint(
        "fleet_scale", seed, trials, campaign,
        "nodes=" + std::to_string(nodes) + ",mode=" + mode_name);
    const std::unique_ptr<WorkerCampaignRunner> pool =
        makeWorkerPool(options, "fleet_scale", fingerprint, campaign);
    if (pool == nullptr && (options.has("checkpoint") ||
                            options.has("resume") || options.has("shards")))
        fatal("fleet_scale: --checkpoint/--resume/--shards require "
              "--workers=N (the in-process fleet run is not sharded)");
    BenchObs obs(options, "fleet_scale", report);
    run.stats = obs.stats();

    std::cout << "Fleet scale: " << nodes << " nodes/system, " << trials
              << " trials, RelaxFault-4way, " << mode_name << " mode, "
              << (workers > 0 ? std::to_string(workers) + " workers"
                              : std::string("in-process"))
              << "\n\n";

    Clock &clock = Clock::steady();
    const Clock::TimePoint start = clock.now();
    LifetimeSummary summary;
    int64_t worker_rss = 0;
    int64_t worker_sum_rss = 0;
    unsigned shards_run = 0;
    unsigned shards_resumed = 0;
    if (pool != nullptr) {
        const CampaignResult result = pool->runUnitFleet(
            "fleet", simulator, factory, trials, seed, run);
        if (result.interrupted)
            return pool->exitStatus();
        summary = result.summary;
        worker_rss = pool->workerPeakRssBytes();
        worker_sum_rss = pool->workerSumRssBytes();
        shards_run = result.shardsRun;
        shards_resumed = result.shardsResumed;
        stampWorkerRss(report, pool.get());
    } else {
        summary = simulator.runTrials(trials, factory, seed, run);
        shards_run = 1;
    }
    const uint64_t elapsed_ms = clock.elapsedMs(start);
    const double trials_per_sec =
        elapsed_ms > 0 ? 1000.0 * trials / static_cast<double>(elapsed_ms)
                       : 0.0;
    const int64_t parent_rss = peakRssBytes();
    const int64_t peak_rss = std::max(parent_rss, worker_rss);
    // Two complementary footprints: `peak_rss_bytes` is the single
    // hottest process (max fold); `sum_rss_bytes` approximates the
    // fleet-wide footprint — parent plus the sum of each worker slot's
    // peak — what an operator must budget to co-locate the whole pool.
    const int64_t sum_rss = parent_rss + worker_sum_rss;

    TextTable table;
    table.setHeader({"metric", "value"});
    table.addRow({"trials/sec", TextTable::num(trials_per_sec, 3)});
    table.addRow({"elapsed-ms", std::to_string(elapsed_ms)});
    table.addRow({"peak-rss-MiB",
                  TextTable::num(static_cast<double>(peak_rss) /
                                     (1024.0 * 1024.0), 1)});
    table.addRow({"faulty-nodes", TextTable::num(summary.faultyNodes.mean(),
                                                 0)});
    table.addRow({"DUEs", TextTable::num(summary.dues.mean(), 2)});
    table.addRow({"SDCs", TextTable::num(summary.sdcs.mean(), 4)});
    table.addRow({"replacements", TextTable::num(summary.replacements.mean(),
                                                 2)});
    table.print(std::cout);

    report.addRow()
        .set("nodes", nodes)
        .set("trials", trials)
        .set("mode", mode_name)
        .set("workers", workers)
        .set("shards_run", shards_run)
        .set("shards_resumed", shards_resumed)
        .set("trials_per_sec", trials_per_sec)
        .set("elapsed_ms", elapsed_ms)
        .set("peak_rss_bytes", peak_rss)
        .set("worker_peak_rss_bytes", worker_rss)
        .set("sum_rss_bytes", sum_rss)
        .set("faulty_nodes", summary.faultyNodes.mean())
        .set("dues", summary.dues.mean())
        .set("sdcs", summary.sdcs.mean())
        .set("replacements", summary.replacements.mean());
    report.write();
    obs.finish();
    return workerPoolExitStatus("fleet_scale", pool.get());
}
