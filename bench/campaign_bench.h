/**
 * @file
 * Campaign plumbing shared by the sharded Monte Carlo benches, and the
 * `LifetimeBench` driver that owns the setup and teardown of the
 * lifetime figures (Figs. 9, 12, 13, 14).
 *
 * Each bench hands the strict `CliOptions` parser exactly one flag list,
 * so an option a bench does not read is an "unknown option" exit and
 * the parser is the only place a flag is rejected. The lifetime benches
 * share `kLifetimeBenchFlags` (the repair-matrix figures add
 * `--degrade`); fleet_scale has `kFleetScaleFlags`. The campaign groups
 * on those lists:
 *
 *  - `--checkpoint=PATH` / `--resume` / `--shards=N` route every unit
 *    through a `CampaignRunner` that checkpoints after each shard.
 *  - `--workers=N` (N > 0) runs the shards on N forked processes over a
 *    shared-memory ring instead (`WorkerCampaignRunner`), merged
 *    deterministically so every table and JSON row is bit-identical to
 *    the in-process run. Worker `k` commits to `<checkpoint>.worker<k>`.
 *    `--watchdog-ms` / `--quarantine-after` configure its supervisor.
 *  - `--metrics-out=PATH[:PERIOD_MS]` publishes the metric registry as
 *    OpenMetrics text, at exit or every PERIOD_MS (atomic snapshots).
 *    `--profile[=PATH]` arms the SIGPROF sampling profiler and writes
 *    folded stacks to PATH (or stderr) plus a self-time table.
 *    `--stats-plane=PATH` creates the live shared-memory stats plane
 *    that `tools/fleet_top` attaches to: one slot per worker with
 *    `--workers`, one slot in-process.
 *
 * Workers, auditing, tracing and the three observability instruments
 * never change results; only the degradation policy and the address
 * mapping do, so only those enter the campaign fingerprint.
 */

#ifndef RELAXFAULT_BENCH_CAMPAIGN_BENCH_H
#define RELAXFAULT_BENCH_CAMPAIGN_BENCH_H

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_json.h"
#include "bench_util.h"
#include "campaign/campaign.h"
#include "common/fs.h"
#include "fleet/worker_pool.h"
#include "telemetry/openmetrics.h"
#include "telemetry/profiler.h"
#include "telemetry/stats_plane.h"

namespace relaxfault::bench {

/** Every flag a lifetime Monte Carlo bench reads (fig09; fig12/13/14
 *  add `degrade`). */
inline const std::vector<std::string> kLifetimeBenchFlags = {
    "trials",     "seed",        "nodes",        "threads",
    "progress",   "json",        "audit",        "audit-every",
    "checkpoint", "resume",      "shards",       "workers",
    "watchdog-ms", "quarantine-after", "trace",  "trace-filter",
    "mapping",    "metrics-out", "profile",      "stats-plane"};

/** Every flag fleet_scale reads. */
inline const std::vector<std::string> kFleetScaleFlags = {
    "trials",     "seed",        "nodes",        "threads",
    "progress",   "json",        "mode",         "checkpoint",
    "resume",     "shards",      "workers",      "watchdog-ms",
    "quarantine-after", "metrics-out", "profile", "stats-plane"};

/** Build `CampaignOptions` from `--checkpoint`/`--resume`/`--shards`. */
inline CampaignOptions
campaignOptions(const CliOptions &options)
{
    CampaignOptions campaign;
    campaign.checkpointPath = options.getString("checkpoint", "");
    campaign.resume = options.has("resume");
    campaign.shards =
        static_cast<unsigned>(options.getPositiveInt("shards", 1));
    if (campaign.resume && campaign.checkpointPath.empty())
        fatal("--resume requires --checkpoint=PATH");
    return campaign;
}

/** Campaign identity from a bench's reproducibility stamp. */
inline CampaignFingerprint
campaignFingerprint(const std::string &bench, uint64_t seed,
                    uint64_t trials, const CampaignOptions &campaign,
                    const std::string &config)
{
    CampaignFingerprint fingerprint;
    fingerprint.campaign = bench;
    fingerprint.seed = seed;
    fingerprint.trials = trials;
    fingerprint.shards = campaign.shards == 0 ? 1 : campaign.shards;
    fingerprint.config = config;
    return fingerprint;
}

/** Parsed `--workers` count; 0 (the default) keeps execution in-process. */
inline unsigned
workerCount(const CliOptions &options)
{
    return static_cast<unsigned>(options.getNonNegativeInt("workers", 0));
}

/**
 * Build the worker pool when `--workers` > 0 (null keeps the bench
 * in-process). Fatal when combined with `--trace` (trace buffers are
 * per-process and have no merge path), and fatal when the supervision
 * flags appear without `--workers`: a silently ignored watchdog is a
 * run the operator wrongly believes is hang-proof.
 */
inline std::unique_ptr<WorkerCampaignRunner>
makeWorkerPool(const CliOptions &options, const std::string &bench,
               const CampaignFingerprint &fingerprint,
               const CampaignOptions &campaign)
{
    const unsigned workers = workerCount(options);
    if (workers == 0) {
        if (options.has("watchdog-ms") || options.has("quarantine-after"))
            fatal(bench + ": --watchdog-ms/--quarantine-after require "
                          "--workers=N (they configure the fleet "
                          "supervisor)");
        return nullptr;
    }
    if (options.has("trace"))
        fatal(bench + ": --workers does not support --trace (trace "
                      "buffers are per-process; run tracing in-process)");
    WorkerOptions worker_options;
    worker_options.workers = workers;
    worker_options.checkpointPath = campaign.checkpointPath;
    worker_options.resume = campaign.resume;
    worker_options.shards = campaign.shards;
    worker_options.watchdogMs = static_cast<uint64_t>(
        options.getNonNegativeInt("watchdog-ms", 0));
    worker_options.quarantineAfter = static_cast<unsigned>(
        options.getNonNegativeInt("quarantine-after", 0));
    // With a pool, `--stats-plane` makes the pool own an N-slot plane
    // and each worker publishes into its own slot.
    worker_options.statsPath = options.getString("stats-plane", "");
    // A quarantine policy needs enough rounds to observe the crashes
    // it counts: one round per allowed attempt, plus one to finish the
    // healthy shards after the verdict.
    if (worker_options.quarantineAfter != 0)
        worker_options.maxRounds =
            std::max(worker_options.maxRounds,
                     worker_options.quarantineAfter + 1);
    return std::make_unique<WorkerCampaignRunner>(fingerprint,
                                                  worker_options);
}

/**
 * Exit status of a pool run that completed but quarantined shards: the
 * reported numbers are partial, so the bench must not exit 0. Call
 * after `report.write()`; returns 0 for a clean (or poolless) run.
 */
inline constexpr int kQuarantineExitStatus = 75;  // EX_TEMPFAIL.

inline int
workerPoolExitStatus(const std::string &bench,
                     const WorkerCampaignRunner *pool)
{
    if (pool == nullptr || pool->shardsQuarantined() == 0)
        return 0;
    warn(bench + ": " + std::to_string(pool->shardsQuarantined()) +
         " shard(s) quarantined — reported results are PARTIAL (see " +
         WorkerCampaignRunner::supervisorLogPath(
             pool->checkpointBasePath()) +
         "); exiting " + std::to_string(kQuarantineExitStatus));
    return kQuarantineExitStatus;
}

/**
 * Fold the pool's per-worker peak RSS into the report's
 * `sim.peak_rss_bytes` gauge (max semantics; `BenchReport::write` then
 * maxes in the parent's own peak). No-op without a pool or `--json`.
 */
inline void
stampWorkerRss(BenchReport &report, const WorkerCampaignRunner *pool)
{
    if (pool == nullptr || report.metrics() == nullptr)
        return;
    Gauge &gauge = report.metrics()->gauge(kPeakRssGauge);
    gauge.set(std::max(gauge.value(), pool->workerPeakRssBytes()));
}

/**
 * Owner of one bench run's observability plumbing (`--metrics-out`,
 * `--profile`, `--stats-plane`; see the file comment). Construct after
 * `BenchReport` and the worker pool; call `finish()` after the report
 * is written (destruction also finishes, so early fatal exits still
 * flush the exporter's final snapshot).
 */
class BenchObs
{
  public:
    BenchObs(const CliOptions &options, const std::string &bench,
             BenchReport &report)
    {
        const unsigned workers = workerCount(options);

        if (options.has("metrics-out")) {
            std::string path = options.getString("metrics-out", "");
            uint64_t period_ms = 0;
            // PATH[:PERIOD_MS] — the suffix is a period only when it is
            // all digits, so plain paths containing ':' keep working.
            const size_t colon = path.rfind(':');
            if (colon != std::string::npos && colon + 1 < path.size()) {
                const std::string tail = path.substr(colon + 1);
                bool digits = true;
                for (const char c : tail)
                    digits = digits &&
                             std::isdigit(static_cast<unsigned char>(c));
                if (digits) {
                    period_ms = std::strtoull(tail.c_str(), nullptr, 10);
                    path.resize(colon);
                }
            }
            if (path.empty())
                fatal(bench +
                      ": --metrics-out requires =PATH[:PERIOD_MS]");
            report.enableMetrics();
            exporter_ = std::make_unique<OpenMetricsExporter>(
                *report.metrics(), path, period_ms);
        }

        if (options.has("profile")) {
            if (workers != 0)
                fatal(bench + ": --profile does not support --workers "
                              "(the CPU-time sampling timer is not "
                              "inherited across fork; profile the "
                              "in-process path)");
            profilePath_ = options.getString("profile", "");
            profiler::start();
            profiling_ = true;
        }

        if (options.has("stats-plane")) {
            statsPath_ = options.getString("stats-plane", "");
            if (statsPath_.empty())
                fatal(bench + ": --stats-plane requires =PATH");
            if (workers == 0) {
                // In-process run: one slot, announced immediately so an
                // observer attaching mid-run sees a live row.
                plane_ = std::make_unique<StatsPlane>(
                    StatsPlane::create(statsPath_, 1, bench));
                publisher_ = plane_->publisher(0);
                publisher_.announce(StatsPhase::Running);
            }
            // With --workers the pool creates the plane (one slot per
            // worker) from WorkerOptions::statsPath; see makeWorkerPool.
        }
    }

    ~BenchObs() { finish(); }

    BenchObs(const BenchObs &) = delete;
    BenchObs &operator=(const BenchObs &) = delete;

    /** In-process publisher for TrialRunOptions/FleetTrialOptions
     *  `.stats`; null when disabled or when the pool owns the plane. */
    StatsPublisher *stats()
    {
        return publisher_.enabled() ? &publisher_ : nullptr;
    }

    /** Stop sampling/exporting and write final artifacts (idempotent). */
    void finish()
    {
        if (finished_)
            return;
        finished_ = true;
        if (publisher_.enabled())
            publisher_.setPhase(StatsPhase::Done);
        if (profiling_) {
            profiler::stop();
            const std::string folded = profiler::folded();
            if (!profilePath_.empty()) {
                if (const IoResult io =
                        atomicWriteFile(profilePath_, folded);
                    !io)
                    fatal("cannot write --profile file: " +
                          io.describe(profilePath_));
                inform("wrote " + profilePath_ + " (" +
                       std::to_string(profiler::totalSamples()) +
                       " samples)");
            } else {
                std::cerr << folded;
            }
            std::cerr << profiler::selfTimeTable();
        }
        if (exporter_ != nullptr)
            exporter_->stop();
    }

  private:
    std::unique_ptr<OpenMetricsExporter> exporter_;
    std::unique_ptr<StatsPlane> plane_;
    StatsPublisher publisher_;
    std::string statsPath_;
    std::string profilePath_;
    bool profiling_ = false;
    bool finished_ = false;
};

/** Identity and defaults of one lifetime Monte Carlo bench. */
struct LifetimeBenchSpec
{
    std::string name;      ///< Bench name: report, trace, fingerprint.
    unsigned trials = 1;   ///< Default `--trials`.
    uint64_t seed = 0;     ///< Default `--seed`.
    bool degrade = false;  ///< Reads `--degrade` (repair-matrix figures).
};

/**
 * One lifetime bench run: parses `kLifetimeBenchFlags` (plus `degrade`
 * when the spec asks for it), stamps the `BenchReport`, and owns the
 * trace, the campaign runner or worker pool, and the observability
 * plane. The bench's `main()` is then its sweep: `config()` per table,
 * `runUnit()` per row, and `return finish()`.
 */
class LifetimeBench
{
  public:
    LifetimeBench(int argc, char **argv, const LifetimeBenchSpec &spec)
        : name_(spec.name),
          options_(argc, argv, flags(spec.degrade)),
          trials_(static_cast<unsigned>(
              options_.getPositiveInt("trials", spec.trials))),
          seed_(static_cast<uint64_t>(options_.getInt("seed", spec.seed))),
          nodes_(static_cast<unsigned>(
              options_.getPositiveInt("nodes", 16384))),
          degrade_(spec.degrade ? std::optional(degradeFlag(options_))
                                : std::nullopt),
          mapping_(mappingFlag(options_)),
          run_(trialRunOptions(options_)),
          trace_(traceFlag(options_, name_)),
          report_(options_, name_),
          campaign_([this] {
              CampaignOptions campaign = campaignOptions(options_);
              campaign.tracePath = trace_.path;
              return campaign;
          }()),
          fingerprint_(campaignFingerprint(name_, seed_, trials_,
                                           campaign_, fingerprintConfig())),
          pool_(makeWorkerPool(options_, name_, fingerprint_, campaign_)),
          runner_(pool_ != nullptr
                      ? nullptr
                      : std::make_unique<CampaignRunner>(fingerprint_,
                                                         campaign_)),
          obs_(options_, name_, report_)
    {
        run_.audit = auditFlag(options_);
        run_.tracer = trace_.get();
        run_.stats = obs_.stats();
        report_.record().setSeed(seed_).setTrials(trials_).setThreads(
            run_.parallel.threads);
        report_.record().setConfig("nodes", static_cast<int64_t>(nodes_));
        if (degrade_.has_value())
            report_.record().setConfig("degrade",
                                       degradationPolicyName(*degrade_));
        report_.record().setConfig("mapping", mapping_);
    }

    unsigned trials() const { return trials_; }
    unsigned nodes() const { return nodes_; }
    BenchReport &report() { return report_; }

    /** Base config: `--nodes`, `--mapping`, `--degrade`, ReplA. */
    LifetimeConfig config() const
    {
        LifetimeConfig config;
        config.nodesPerSystem = nodes_;
        config.policy = ReplacePolicy::AfterDue;
        if (degrade_.has_value())
            config.degradation = *degrade_;
        config.mapping = mapping_;
        return config;
    }

    /**
     * Run one campaign unit (a table row) on the worker pool when
     * `--workers` is set, else on the in-process runner; the result is
     * bit-identical either way. @p unit keys the row's checkpoint shards
     * and trace unit. An `interrupted` result means a stop signal ended
     * the campaign: stop sweeping and return `finish()`.
     */
    CampaignResult
    runUnit(const std::string &unit, const LifetimeSimulator &simulator,
            const LifetimeSimulator::MechanismFactory &factory,
            const std::string &progress_label = "trials")
    {
        TrialRunOptions run = run_;
        run.progressLabel = progress_label;
        run.metrics = report_.metrics();
        if (run.tracer != nullptr)
            run.traceUnit = run.tracer->registerUnit(unit);
        if (pool_ != nullptr)
            return pool_->runUnit(unit, simulator, factory, trials_, seed_,
                                  run);
        return runner_->runUnit(unit, simulator, factory, trials_, seed_,
                                run);
    }

    /**
     * Exit status of the run. After a stop signal: 128+signal, writing
     * nothing (the checkpoint is the partial-run artifact). Otherwise
     * write the report, trace and observability artifacts, and exit
     * nonzero if the pool quarantined shards.
     */
    int finish()
    {
        if (SignalGuard::stopRequested())
            return 128 + SignalGuard::stopSignal();
        stampWorkerRss(report_, pool_.get());
        report_.write();
        trace_.write();
        obs_.finish();
        return workerPoolExitStatus(name_, pool_.get());
    }

  private:
    /** The flag list a lifetime bench hands the strict parser. */
    static std::vector<std::string>
    flags(bool degrade)
    {
        std::vector<std::string> known = kLifetimeBenchFlags;
        if (degrade)
            known.push_back("degrade");
        return known;
    }

    /** Fingerprint config: the settings that change results. The string
     *  must stay stable, or existing checkpoints stop resuming. */
    std::string fingerprintConfig() const
    {
        std::string config = "nodes=" + std::to_string(nodes_);
        if (degrade_.has_value())
            config += std::string(",degrade=") +
                      degradationPolicyName(*degrade_);
        return config + ",mapping=" + mapping_;
    }

    const std::string name_;
    const CliOptions options_;
    const unsigned trials_;
    const uint64_t seed_;
    const unsigned nodes_;
    const std::optional<DegradationPolicy> degrade_;
    const std::string mapping_;
    TrialRunOptions run_;
    const BenchTrace trace_;
    BenchReport report_;
    const CampaignOptions campaign_;
    const CampaignFingerprint fingerprint_;
    const std::unique_ptr<WorkerCampaignRunner> pool_;
    const std::unique_ptr<CampaignRunner> runner_;
    BenchObs obs_;
};

} // namespace relaxfault::bench

#endif // RELAXFAULT_BENCH_CAMPAIGN_BENCH_H
