#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>

#include "common/process.h"
#include "digest.h"
#include "repair/freefault_repair.h"
#include "repair/ppr_repair.h"
#include "repair/relaxfault_repair.h"

namespace perfbench {

using namespace relaxfault;

namespace {

constexpr CacheGeometry kPaperLlc{8 * 1024 * 1024, 16, 64};
constexpr uint64_t kRepairCapBytes = 2 * 1024 * 1024;

constexpr unsigned kLifetimeNodes = 16384;
constexpr unsigned kFleetNodes = 200000;
constexpr unsigned kFleetThreads = 2;
constexpr unsigned kFleetTrialsPerRound = 2;
constexpr uint64_t kPerfInstructionsPerCore = 200'000;
constexpr size_t kDatapathLines = 131072;
constexpr uint64_t kDatapathRoundOps = 65536;
/// The datapath digest is pinned at this many operations.
constexpr uint64_t kDatapathPinOps = 131072;

/** Share of `seconds` the traced run gives its untraced reference. */
constexpr double kTraceUntracedShare = 0.4;

double
seconds(uint64_t ns)
{
    return 1e-9 * static_cast<double>(ns);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Set-up time. The constructor makes one cold build and about 0.2 s of
 * warm-up builds, then takes the first samples; `between` takes one more
 * between operations, at most one per kSpacingS, so that the samples see
 * the same host speed swings over the run as the operations do. A sample
 * repeats the build for at least 100 ms. The builds go to throwaway
 * objects, never to the ones the operations use; where two of those
 * would not fit beside each other, call `sample` after the run instead.
 */
class SetupTimer
{
  public:
    static constexpr unsigned kFirstSamples = 3;
    static constexpr double kSpacingS = 2.0;

    explicit SetupTimer(std::function<void()> build)
        : build_(std::move(build))
    {
        uint64_t start = nowNs();
        build_();
        const double first = seconds(nowNs() - start);
        reps_ = static_cast<unsigned>(
            std::max(1.0, std::ceil(0.1 / std::max(first, 1e-9))));
        start = nowNs();
        while (seconds(nowNs() - start) < 0.2)
            build_();
        for (unsigned i = 0; i < kFirstSamples; ++i)
            sample();
    }

    /** Take a sample if kSpacingS has passed since the last one. */
    void between()
    {
        if (seconds(nowNs() - last_) >= kSpacingS)
            sample();
    }

    /** Time the build repeated for at least 100 ms. */
    void sample()
    {
        const uint64_t t0 = nowNs();
        for (unsigned r = 0; r < reps_; ++r)
            build_();
        last_ = nowNs();
        spent_ += seconds(last_ - t0);
        perBuild_.push_back(seconds(last_ - t0) / reps_);
    }

    /** Median per-build seconds over all samples. */
    double perBuildS() const { return median(perBuild_); }

    /** Seconds spent sampling so far. */
    double spentS() const { return spent_; }

  private:
    std::function<void()> build_;
    unsigned reps_ = 1;
    uint64_t last_ = 0;
    double spent_ = 0.0;
    std::vector<double> perBuild_;
};

/**
 * Call @p round for about @p budget seconds, at least once: stop when
 * another round would likely end further past the budget than the run
 * now falls short of it. With @p fit, stop instead before a round that
 * would likely overrun the budget (the traced run's untraced reference).
 * @p setup samples between rounds (and may inside one, between its
 * operations). Returns each round's time in seconds, less any sampling.
 */
std::vector<double>
runRounds(double budget, bool fit, SetupTimer &setup,
          const std::function<void()> &round)
{
    std::vector<double> times;
    const uint64_t start = nowNs();
    for (;;) {
        if (!times.empty())
            setup.between();
        const double spent = setup.spentS();
        const uint64_t t0 = nowNs();
        round();
        times.push_back(seconds(nowNs() - t0) - (setup.spentS() - spent));
        const double elapsed = seconds(nowNs() - start);
        const double next = median(times) * (fit ? 1.0 : 0.5);
        if (elapsed + next >= budget)
            return times;
    }
}

std::string
fixed(double value, int digits)
{
    char text[64];
    std::snprintf(text, sizeof text, "%.*f", digits, value);
    return text;
}

/** Note the spread of round times within the run. */
void
noteRounds(Outcome &out, const std::vector<double> &round_s)
{
    Samples ns;
    for (const double s : round_s)
        ns.add(static_cast<uint64_t>(s * 1e9));
    out.note("rounds " + std::to_string(round_s.size()) + ", seconds p10 " +
             fixed(1e-9 * ns.percentile(10), 4) + " p50 " +
             fixed(1e-9 * ns.percentile(50), 4) + " p90 " +
             fixed(1e-9 * ns.percentile(90), 4));
}

/** Peak resident memory of this process in MiB. */
double
peakRssMib()
{
    return static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
}

void
endToEnd(Outcome &out, double setup_s, double ops_per_s,
         const Samples &op_ns)
{
    out.metrics = {
        {"setup_s", setup_s, "s"},
        {"ops_per_s", ops_per_s, "ops/s"},
        {"op_us_p50", 1e-3 * static_cast<double>(op_ns.percentile(50)),
         "us"},
        {"op_us_p90", 1e-3 * static_cast<double>(op_ns.percentile(90)),
         "us"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
    };
    out.note("op latency samples: " + std::to_string(op_ns.count()));
}

/** Traced-run metrics, emitted in perLayerMetrics() order. */
class LayerMetrics
{
  public:
    void set(const std::string &name, double value) { values_[name] = value; }

    void percentiles(const std::string &prefix, const Samples &samples,
                     double scale)
    {
        set(prefix + "_p50",
            scale * static_cast<double>(samples.percentile(50)));
        set(prefix + "_p99",
            scale * static_cast<double>(samples.percentile(99)));
    }

    /** Emit every per-layer metric; unset ones are 0. */
    void emit(Outcome &out) const
    {
        for (const auto &[name, unit] : perLayerMetrics()) {
            const auto it = values_.find(name);
            out.metrics.push_back(
                {name, it == values_.end() ? 0.0 : it->second, unit});
        }
        for (const auto &[name, value] : values_) {
            bool known = false;
            for (const auto &metric : perLayerMetrics())
                known = known || metric.first == name;
            if (!known)
                out.fail("internal: unlisted per-layer metric " + name);
        }
    }

  private:
    std::map<std::string, double> values_;
};

/** Wall time, overhead and unattributed time of a traced run. */
void
benchMetrics(LayerMetrics &layers, double traced_wall,
             double untraced_wall, double attributed)
{
    layers.set("bench.traced_wall_s", traced_wall);
    layers.set("bench.unattributed_s", traced_wall - attributed);
    layers.set("bench.trace_overhead_frac",
               ratio(traced_wall, untraced_wall) - 1.0);
}

void
writeSpans(Outcome &out, const SpanTracer &tracer, const RunOptions &opt)
{
    const std::string path = opt.traceDir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".spans.tsv";
    if (!tracer.write(path))
        out.fail("cannot write spans to " + path);
    else
        out.note("spans: " + std::to_string(tracer.storedSpans()) +
                 " kept (" + std::to_string(tracer.foldedLong()) +
                 " long ones folded past the cap), written to " + path);
}

void
checkPin(Outcome &out, const RunOptions &opt, const std::string &digest,
         uint64_t ops)
{
    std::string why;
    if (!matchesPin(opt.workload, opt.seed, digest, &why))
        out.fail(why, ops);
    out.note("digest " + digest +
             (hasPin(opt.workload, opt.seed) ? " (pinned seed)"
                                              : " (no pin at this seed)"));
}

/** Sanity of one lifetime summary beyond bit-identity. */
void
checkLifetime(Outcome &out, const std::string &label,
              const LifetimeSummary &s, bool repairs)
{
    const bool ok = s.faultyNodes.mean() > 0.0 &&
                    s.permanentFaults.mean() >= s.repairedFaults.mean() &&
                    s.faultyNodes.mean() >= s.fullyRepairedNodes.mean() &&
                    (repairs || s.repairedFaults.mean() == 0.0);
    if (!ok)
        out.fail(label + ": inconsistent lifetime summary");
}

/**
 * The traced lifetime replays' layer times: sampler (@p sample_call),
 * node pipeline self time and the timed mechanism. Returns the seconds
 * they attribute.
 */
double
lifetimeLayers(LayerMetrics &layers, const SpanTracer &tracer,
               const std::string &sample_call, uint64_t successes)
{
    const double try_s = tracer.busySeconds("repair.tryRepair");
    const double reset_s = tracer.busySeconds("repair.reset");
    const double node_self_s = tracer.selfSeconds("sim.simulateNode");
    layers.set("sim.node_self_s", node_self_s);
    layers.set("repair.try_s", try_s);
    layers.set("repair.reset_s", reset_s);
    if (const SpanTracer::NameStats *tries = tracer.find("repair.tryRepair")) {
        layers.set("repair.try_calls", static_cast<double>(tries->calls));
        layers.set("repair.success_ratio",
                   ratio(static_cast<double>(successes),
                         static_cast<double>(tries->calls)));
        layers.percentiles("repair.try_us", tries->durations, 1e-3);
    }
    if (const SpanTracer::NameStats *resets = tracer.find("repair.reset"))
        layers.set("repair.resets", static_cast<double>(resets->calls));
    return tracer.busySeconds(sample_call) + node_self_s + try_s + reset_s;
}

// ---- lifetime_10x ------------------------------------------------------

Outcome
runLifetime(const RunOptions &opt)
{
    Outcome out;
    const LifetimeConfig config = lifetimeConfig(kLifetimeNodes, 10.0);
    SetupTimer setup([&] {
        const LifetimeSimulator simulator(config);
        const std::vector<MatrixRow> rows = matrixRows(config);
        // What each trial builds first: its sampler and mechanism.
        const NodeFaultSampler sampler(config.faultModel);
        for (const MatrixRow &row : rows) {
            if (row.factory)
                row.factory().reset();
        }
    });
    const LifetimeSimulator simulator(config);
    const std::vector<MatrixRow> rows = matrixRows(config);

    TrialRunOptions run;
    run.parallel.threads = 1;   // Null metrics/tracer/stats: all off.

    // Every round runs trial 0 of every row, so a run times the same work
    // however many rounds the host's speed allows; the repeats must
    // match the first round bit for bit.
    std::vector<std::string> row_digest(rows.size());
    std::vector<double> trial0_s(rows.size());
    Samples op_ns;
    Digest matrix;
    bool first_round = true;
    auto round = [&] {
        for (size_t r = 0; r < rows.size(); ++r) {
            if (r != 0)
                setup.between();
            const uint64_t t0 = nowNs();
            const LifetimeMetrics metrics = simulator.runTrialRange(
                0, 1, rows[r].factory, opt.seed, run).front();
            const uint64_t ns = nowNs() - t0;
            op_ns.add(ns);
            ++out.attempted;
            LifetimeSummary trial;
            trial.addTrial(metrics);
            const std::string digest = Digest().add(trial).hex();
            if (!first_round) {
                if (digest != row_digest[r])
                    out.fail(rows[r].label + ": repeated trial digest " +
                             digest + " != " + row_digest[r]);
                continue;
            }
            checkLifetime(out, rows[r].label, trial,
                          static_cast<bool>(rows[r].factory));
            row_digest[r] = digest;
            matrix.add(rows[r].label).add(trial);
            trial0_s[r] = seconds(ns);
        }
        first_round = false;
    };
    const double budget =
        opt.trace ? kTraceUntracedShare * opt.seconds : opt.seconds;
    const std::vector<double> round_s =
        runRounds(budget, opt.trace, setup, round);
    noteRounds(out, round_s);
    checkPin(out, opt, matrix.hex(), rows.size());

    const double ops_per_s = rows.size() / median(round_s);
    out.note("trials_per_s " + fixed(ops_per_s, 4) +
             " (16384-node system trials summed over the six rows)");
    if (!opt.trace) {
        endToEnd(out, setup.perBuildS(), ops_per_s, op_ns);
        return out;
    }

    // Traced replay of trial 0 of every row.
    SpanTracer tracer;
    LifetimeCounts counts;
    uint64_t successes = 0;
    LayerMetrics layers;
    const SpanTracer::NameId run_span = tracer.name("bench.run");
    const SpanTracer::NameId row_span = tracer.name("bench.row");
    double untraced_wall = 0.0;
    double faulty_nodes = 0.0;
    const uint64_t traced_start = nowNs();
    tracer.open(run_span);
    for (size_t r = 0; r < rows.size(); ++r) {
        untraced_wall += trial0_s[r];
        const double try_before = tracer.busySeconds("repair.tryRepair");
        const uint64_t t0 = nowNs();
        tracer.open(row_span);
        const LifetimeMetrics metrics = tracedClassicTrial(
            simulator, timedFactory(rows[r].factory, tracer, successes),
            opt.seed, 0, tracer, counts);
        tracer.close();
        layers.set("sim.row_s." + rows[r].label, seconds(nowNs() - t0));
        if (rows[r].factory)
            layers.set("repair.try_s." + rows[r].label,
                       tracer.busySeconds("repair.tryRepair") - try_before);
        LifetimeSummary summary;
        summary.addTrial(metrics);
        ++out.attempted;
        if (Digest().add(summary).hex() != row_digest[r])
            out.fail(rows[r].label + ": traced replay differs from "
                     "runTrials");
        faulty_nodes += metrics.faultyNodes;
    }
    tracer.close();
    const double traced_wall = seconds(nowNs() - traced_start);

    layers.set("sim.faulty_nodes", faulty_nodes);
    layers.set("faults.sample_s", tracer.busySeconds("faults.sampleNode"));
    layers.set("faults.nodes", static_cast<double>(counts.nodes));
    layers.set("faults.arrivals", static_cast<double>(counts.arrivals));
    benchMetrics(layers, traced_wall, untraced_wall,
                 lifetimeLayers(layers, tracer, "faults.sampleNode",
                                successes));
    writeSpans(out, tracer, opt);
    layers.emit(out);
    return out;
}

// ---- fleet_1x ----------------------------------------------------------

Outcome
runFleet(const RunOptions &opt)
{
    Outcome out;
    const LifetimeConfig config = lifetimeConfig(kFleetNodes, 1.0);
    SetupTimer setup([&] {
        const FleetSimulator fleet(config);
        relaxFaultFactory(config, 4)().reset();   // Each trial builds one.
    });
    const FleetSimulator fleet(config);
    const LifetimeSimulator::MechanismFactory factory =
        relaxFaultFactory(config, 4);

    FleetTrialOptions run;
    run.mode = FleetMode::Lazy;
    run.parallel.threads = kFleetThreads;   // Null metrics/stats: off.

    // Every round runs trials 0 and 1 (one per thread), so a run times
    // the same work however many rounds the host's speed allows; folded
    // in order they are exactly runTrials(2), and the repeats must match
    // the first round bit for bit.
    std::string first_digest;
    Samples op_ns;
    auto round = [&] {
        const uint64_t t0 = nowNs();
        const std::vector<LifetimeMetrics> trials = fleet.runTrialRange(
            0, kFleetTrialsPerRound, factory, opt.seed, run);
        const uint64_t ns = nowNs() - t0;
        LifetimeSummary pair;
        for (const LifetimeMetrics &metrics : trials) {
            // The trials of a round run concurrently; each one's latency
            // is the round's wall time.
            op_ns.add(ns);
            ++out.attempted;
            LifetimeSummary trial;
            trial.addTrial(metrics);
            checkLifetime(out, "fleet", trial, true);
            pair.addTrial(metrics);
        }
        const std::string digest = Digest().add(pair).hex();
        if (first_digest.empty())
            first_digest = digest;
        else if (digest != first_digest)
            out.fail("repeated trials' digest " + digest + " != " +
                         first_digest,
                     kFleetTrialsPerRound);
    };
    const double budget =
        opt.trace ? kTraceUntracedShare * opt.seconds : opt.seconds;
    const std::vector<double> round_s =
        runRounds(budget, opt.trace, setup, round);
    noteRounds(out, round_s);
    checkPin(out, opt, first_digest, kFleetTrialsPerRound);
    const double ops_per_s = kFleetTrialsPerRound / median(round_s);
    out.note("trials_per_s " + fixed(ops_per_s, 4) + " (" +
             std::to_string(kFleetNodes) + "-node trials, " +
             std::to_string(kFleetThreads) + " threads)");
    if (!opt.trace) {
        endToEnd(out, setup.perBuildS(), ops_per_s, op_ns);
        return out;
    }

    // Untraced reference at the traced replay's single thread, then the
    // traced replay; both must equal the two-thread rounds.
    FleetTrialOptions single = run;
    single.parallel.threads = 1;
    uint64_t t0 = nowNs();
    const LifetimeSummary one_thread =
        fleet.runTrials(kFleetTrialsPerRound, factory, opt.seed, single);
    const double untraced_wall = seconds(nowNs() - t0);
    out.attempted += kFleetTrialsPerRound;
    if (Digest().add(one_thread).hex() != first_digest)
        out.fail("1-thread runTrials differs from the 2-thread run",
                 kFleetTrialsPerRound);

    const LifetimeSimulator simulator(config);
    SpanTracer tracer;
    LifetimeCounts counts;
    uint64_t successes = 0;
    const LifetimeSimulator::MechanismFactory timed =
        timedFactory(factory, tracer, successes);
    LifetimeSummary replay;
    t0 = nowNs();
    tracer.open(tracer.name("bench.run"));
    for (unsigned t = 0; t < kFleetTrialsPerRound; ++t)
        replay.addTrial(tracedFleetTrial(fleet, simulator, timed, opt.seed,
                                         t, tracer, counts));
    tracer.close();
    const double traced_wall = seconds(nowNs() - t0);
    out.attempted += kFleetTrialsPerRound;
    if (Digest().add(replay).hex() != first_digest)
        out.fail("traced 1-thread replay differs from the 2-thread run",
                 kFleetTrialsPerRound);

    LayerMetrics layers;
    layers.set("fleet.sample_s", tracer.busySeconds("fleet.sampleNodeInto"));
    layers.set("fleet.nodes", static_cast<double>(counts.nodes));
    layers.set("fleet.skip_ratio",
               ratio(static_cast<double>(counts.skipped),
                     static_cast<double>(counts.nodes)));
    layers.set("sim.faulty_nodes", replay.faultyNodes.sum());
    layers.set("repair.try_s.RelaxFault-4way",
               tracer.busySeconds("repair.tryRepair"));
    benchMetrics(layers, traced_wall, untraced_wall,
                 lifetimeLayers(layers, tracer, "fleet.sampleNodeInto",
                                successes));
    writeSpans(out, tracer, opt);
    layers.emit(out);
    return out;
}

// ---- perf_fig15 --------------------------------------------------------

/** One simulator run of the Fig. 15 slice. */
struct PerfRun
{
    std::string label;
    std::vector<WorkloadParams> workloads;
    LlcRepairConfig repair;
    uint64_t seed;
    int aloneOf = -1;   ///< Shared runs: index of the group's alone run.
};

std::vector<PerfRun>
perfRuns(const PerfConfig &config, uint64_t seed)
{
    std::vector<PerfRun> runs;
    for (const char *group : {"CG", "LULESH"}) {
        const WorkloadParams params = WorkloadParams::preset(group);
        const int alone = static_cast<int>(runs.size());
        // Alone-IPC baseline exactly as PerfSimulator::aloneIpc runs it.
        runs.push_back({std::string(group) + "/alone", {params},
                        LlcRepairConfig::none(), seed + 1});
        const std::vector<WorkloadParams> shared(config.cores, params);
        runs.push_back({std::string(group) + "/no-repair", shared,
                        LlcRepairConfig::none(), seed, alone});
        runs.push_back({std::string(group) + "/4-way", shared,
                        LlcRepairConfig::ways(4), seed, alone});
    }
    return runs;
}

uint64_t
instructions(const PerfResult &result)
{
    uint64_t total = 0;
    for (const CoreResult &core : result.cores)
        total += core.instructions;
    return total;
}

Outcome
runPerf(const RunOptions &opt)
{
    Outcome out;
    PerfConfig config;
    config.instructionsPerCore = kPerfInstructionsPerCore;
    SetupTimer setup([&] {
        const PerfSimulator simulator(config);
        perfRuns(config, opt.seed);
    });
    const PerfSimulator simulator(config);
    const std::vector<PerfRun> runs = perfRuns(config, opt.seed);

    std::vector<std::string> run_digest(runs.size());
    std::vector<PerfResult> first(runs.size());
    Samples op_ns;
    uint64_t round_instructions = 0;
    bool first_round = true;
    auto round = [&] {
        for (size_t i = 0; i < runs.size(); ++i) {
            const PerfRun &spec = runs[i];
            const uint64_t t0 = nowNs();
            const PerfResult result =
                simulator.run(spec.workloads, spec.repair, spec.seed);
            op_ns.add(nowNs() - t0);
            ++out.attempted;
            const std::string digest = Digest().add(result).hex();
            if (!first_round) {
                if (digest != run_digest[i])
                    out.fail(spec.label + ": repeated run digest " + digest +
                             " != " + run_digest[i]);
                continue;
            }
            run_digest[i] = digest;
            first[i] = result;
            round_instructions += instructions(result);
            if (spec.aloneOf < 0)
                continue;
            const PerfResult &alone = first[spec.aloneOf];
            const double ipc =
                alone.cores.empty() ? 0.0 : alone.cores.front().ipc();
            const double ws = weightedSpeedup(
                result, std::vector<double>(result.cores.size(), ipc));
            if (!(ws > 0.0 && ws <= config.cores + 1e-9))
                out.fail(spec.label + ": weighted speedup " + fixed(ws, 4) +
                         " outside (0, cores]");
            out.note(spec.label + ": weighted speedup " + fixed(ws, 4) +
                     ", LLC miss ratio " + fixed(result.llcMissRate(), 4));
        }
        first_round = false;
    };
    const double budget =
        opt.trace ? kTraceUntracedShare * opt.seconds : opt.seconds;
    const std::vector<double> round_s =
        runRounds(budget, opt.trace, setup, round);
    noteRounds(out, round_s);
    Digest all;
    for (const PerfResult &result : first)
        all.add(result);
    checkPin(out, opt, all.hex(), runs.size());
    const double minstr_per_s =
        1e-6 * static_cast<double>(round_instructions) / median(round_s);
    out.note("sim_minstr_per_s " + fixed(minstr_per_s, 4) +
             " (measured instructions after warm-up, all cores and runs)");
    if (!opt.trace) {
        endToEnd(out, setup.perBuildS(), runs.size() / median(round_s), op_ns);
        return out;
    }

    // Traced replay: the same runs through runStreams with each core's
    // stream wrapped.
    SpanTracer tracer;
    uint64_t accesses = 0;
    PerfResult totals;
    const SpanTracer::NameId trial_span = tracer.name("bench.trial");
    const SpanTracer::NameId run_span = tracer.name("perf.runStreams");
    const uint64_t t0 = nowNs();
    tracer.open(tracer.name("bench.run"));
    for (size_t i = 0; i < runs.size(); ++i) {
        const PerfRun &spec = runs[i];
        tracer.open(trial_span);
        std::vector<std::unique_ptr<AccessStream>> streams =
            syntheticStreams(config, spec.workloads, spec.seed);
        for (auto &stream : streams) {
            if (stream)
                stream = std::make_unique<TimedStream>(std::move(stream),
                                                       tracer, accesses);
        }
        tracer.open(run_span);
        const PerfResult result =
            simulator.runStreams(std::move(streams), spec.repair);
        tracer.close();
        tracer.close();
        ++out.attempted;
        if (Digest().add(result).hex() != run_digest[i])
            out.fail(spec.label + ": traced runStreams differs from run");
        totals.llcHits += result.llcHits;
        totals.llcMisses += result.llcMisses;
        totals.elapsedCycles += result.elapsedCycles;
        totals.dram += result.dram;
    }
    tracer.close();
    const double traced_wall = seconds(nowNs() - t0);

    LayerMetrics layers;
    const double run_s = tracer.busySeconds("perf.runStreams");
    layers.set("perf.run_s", run_s);
    layers.set("perf.stream_s", tracer.busySeconds("perf.next"));
    layers.set("perf.model_s", tracer.selfSeconds("perf.runStreams"));
    layers.set("perf.accesses", static_cast<double>(accesses));
    layers.set("perf.host_ns_per_access",
               ratio(1e9 * run_s, static_cast<double>(accesses)));
    layers.set("perf.sim_cycles", static_cast<double>(totals.elapsedCycles));
    layers.set("perf.sim_minstr_per_s", minstr_per_s);
    layers.set("cache.llc_hits", static_cast<double>(totals.llcHits));
    layers.set("cache.llc_misses", static_cast<double>(totals.llcMisses));
    layers.set("cache.llc_miss_ratio", totals.llcMissRate());
    layers.set("dram.activates", static_cast<double>(totals.dram.activates));
    layers.set("dram.reads", static_cast<double>(totals.dram.reads));
    layers.set("dram.writes", static_cast<double>(totals.dram.writes));
    benchMetrics(layers, traced_wall, round_s.front(), run_s);
    writeSpans(out, tracer, opt);
    layers.emit(out);
    return out;
}

// ---- datapath_rw -------------------------------------------------------

/** Latencies and checks of a datapath operation sequence. */
struct DatapathRun
{
    Samples readNs;
    Samples writeNs;
    /// Per round: the summed timed intervals of its operations, which
    /// leave out the harness's op generation and verification.
    std::vector<double> roundTimedS;
    uint64_t mismatches = 0;     ///< Wrong data without a DUE.
    uint64_t dueReads = 0;
    std::string pinDigest;       ///< Stats after kDatapathPinOps ops.
};

std::string
datapathDigest(const Datapath &dp, const DatapathRun &run)
{
    return Digest()
        .add(dp.controller->stats())
        .add(run.mismatches)
        .add(run.dueReads)
        .hex();
}

/**
 * Issue operations from the seed's op stream: uniformly random lines,
 * 70% reads (verified against the shadow copy), 30% writes of fresh
 * random data. Runs @p ops operations, or when @p ops is 0 rounds of
 * kDatapathRoundOps until @p budget seconds (returning round times).
 * With a tracer, reads are split into decode plus readLine, each timed.
 */
std::vector<double>
datapathOps(Datapath &dp, uint64_t seed, uint64_t &ops, double budget,
            DatapathRun &run, SpanTracer *tracer)
{
    RelaxFaultController &controller = *dp.controller;
    const DramAddressMap &map = controller.addressMap();
    const uint64_t lines = dp.lines.size();
    Rng stream = Rng::forkAt(seed, 2);
    SpanTracer::NameId decode_call = 0;
    SpanTracer::NameId readline_call = 0;
    SpanTracer::NameId write_call = 0;
    if (tracer != nullptr) {
        decode_call = tracer->name("dram.decode");
        readline_call = tracer->name("core.readLine");
        write_call = tracer->name("core.write");
    }
    uint64_t done = 0;
    uint64_t timed_ns = 0;
    auto issue = [&](uint64_t count) {
        for (uint64_t i = 0; i < count; ++i, ++done) {
            const uint64_t index = stream.uniformInt(lines);
            const uint64_t pa = dp.lines[index];
            std::array<uint8_t, 64> buf{};
            if (stream.uniformInt(10) < 7) {
                EccStatus status = EccStatus::Ok;
                if (tracer == nullptr) {
                    const uint64_t t0 = nowNs();
                    status = controller.read(pa, buf.data());
                    const uint64_t ns = nowNs() - t0;
                    run.readNs.add(ns);
                    timed_ns += ns;
                } else {
                    const uint64_t t0 = nowNs();
                    const LineCoord coord = map.decode(pa);
                    const uint64_t t1 = nowNs();
                    status = controller.readLine(coord, buf.data());
                    const uint64_t t2 = nowNs();
                    tracer->leaf(decode_call, t0, t1);
                    tracer->leaf(readline_call, t1, t2);
                    run.readNs.add(t2 - t0);
                    timed_ns += t2 - t0;
                }
                if (buf != dp.shadow[index]) {
                    if (status == EccStatus::Uncorrectable)
                        ++run.dueReads;
                    else
                        ++run.mismatches;
                }
            } else {
                for (unsigned w = 0; w < 8; ++w) {
                    const uint64_t word = stream.next();
                    std::memcpy(buf.data() + 8 * w, &word, 8);
                }
                const uint64_t t0 = nowNs();
                controller.write(pa, buf.data());
                const uint64_t t1 = nowNs();
                if (tracer != nullptr)
                    tracer->leaf(write_call, t0, t1);
                run.writeNs.add(t1 - t0);
                timed_ns += t1 - t0;
                dp.shadow[index] = buf;
            }
            if (done + 1 == kDatapathPinOps)
                run.pinDigest = datapathDigest(dp, run);
        }
    };
    if (ops != 0) {
        issue(ops);
        return {};
    }
    std::vector<double> rounds;
    const uint64_t start = nowNs();
    do {
        const uint64_t t0 = nowNs();
        timed_ns = 0;
        issue(kDatapathRoundOps);
        rounds.push_back(seconds(nowNs() - t0));
        run.roundTimedS.push_back(seconds(timed_ns));
    } while (done < kDatapathPinOps || seconds(nowNs() - start) < budget);
    ops = done;
    return rounds;
}

Outcome
runDatapath(const RunOptions &opt)
{
    Outcome out;
    SetupTimer setup(
        [&] { buildDatapath(opt.seed, kDatapathLines, nullptr); });
    Datapath dp = buildDatapath(opt.seed, kDatapathLines, nullptr);
    if (dp.repairableFailed != 0)
        out.fail(std::to_string(dp.repairableFailed) +
                 " repairable faults were not repaired at set-up");
    out.note("working set " + std::to_string(kDatapathLines) +
             " lines = 8 MiB of data (see the host L2 size above), " +
             std::to_string(dp.faultsReported) + " faults reported");

    const double budget =
        opt.trace ? kTraceUntracedShare * opt.seconds : opt.seconds;
    DatapathRun run;
    uint64_t ops = 0;
    const std::vector<double> round_s =
        datapathOps(dp, opt.seed, ops, budget, run, nullptr);
    noteRounds(out, round_s);
    const double untraced_wall =
        std::accumulate(round_s.begin(), round_s.end(), 0.0);
    out.attempted += ops;
    if (run.mismatches != 0)
        out.fail(std::to_string(run.mismatches) +
                     " reads returned wrong data without a DUE",
                 run.mismatches);
    checkPin(out, opt, run.pinDigest, 1);
    const std::string final_digest = datapathDigest(dp, run);
    const ControllerStats stats = dp.controller->stats();
    out.note("reads " + std::to_string(run.readNs.count()) + " (p50 " +
             std::to_string(run.readNs.percentile(50)) + " ns, p99 " +
             std::to_string(run.readNs.percentile(99)) + " ns), writes " +
             std::to_string(run.writeNs.count()) + " (p50 " +
             std::to_string(run.writeNs.percentile(50)) + " ns, p99 " +
             std::to_string(run.writeNs.percentile(99)) + " ns)");
    out.note("corrected reads " + std::to_string(stats.correctedReads) +
             ", DUE reads " + std::to_string(run.dueReads));
    if (!opt.trace) {
        // Operations per second of controller time: the harness's own
        // share of each round (op stream, shadow compare and update) is
        // left out and noted.
        const double timed_s = median(run.roundTimedS);
        out.note("harness share of round wall time " +
                 fixed(1.0 - timed_s / median(round_s), 4));
        Samples op_ns = run.readNs;
        op_ns.merge(run.writeNs);
        // Set-up samples at the end too, once the controller is gone, so
        // that no two controllers are ever resident at once.
        dp = Datapath();
        for (unsigned i = 0; i < SetupTimer::kFirstSamples; ++i)
            setup.sample();
        endToEnd(out, setup.perBuildS(), kDatapathRoundOps / timed_s, op_ns);
        return out;
    }

    // Traced replay of the same operations on a fresh controller.
    dp = Datapath();
    SpanTracer tracer;
    Datapath traced = buildDatapath(opt.seed, kDatapathLines, &tracer);
    DatapathRun replay;
    const uint64_t t0 = nowNs();
    tracer.open(tracer.name("bench.run"));
    datapathOps(traced, opt.seed, ops, 0.0, replay, &tracer);
    tracer.close();
    const double traced_wall = seconds(nowNs() - t0);
    out.attempted += ops;
    if (replay.mismatches != 0)
        out.fail("traced replay: " + std::to_string(replay.mismatches) +
                     " reads returned wrong data without a DUE",
                 replay.mismatches);
    if (datapathDigest(traced, replay) != final_digest)
        out.fail("traced replay's controller stats differ from the "
                 "untraced run");

    const ControllerStats &ts = traced.controller->stats();
    LayerMetrics layers;
    auto timing = [&](const std::string &call, const std::string &prefix) {
        const SpanTracer::NameStats *stats = tracer.find(call);
        if (stats == nullptr)
            return;
        layers.set(prefix + "_s", 1e-9 * static_cast<double>(stats->busyNs));
        layers.percentiles(prefix + "_ns", stats->durations, 1.0);
        layers.set(prefix + "_samples", static_cast<double>(stats->calls));
    };
    timing("dram.decode", "dram.decode");
    timing("core.readLine", "core.readline");
    timing("core.write", "core.write");
    if (const SpanTracer::NameStats *report = tracer.find("core.reportFault")) {
        layers.set("core.report_fault_us_p50",
                   1e-3 * static_cast<double>(report->durations.percentile(50)));
        layers.set("core.report_fault_samples",
                   static_cast<double>(report->calls));
    }
    layers.set("core.remap_merges", static_cast<double>(ts.remapMerges));
    layers.set("core.remap_fills", static_cast<double>(ts.remapFills));
    layers.set("core.bank_filter_hits", static_cast<double>(ts.bankFilterHits));
    layers.set("core.filter_useful_ratio",
               ratio(static_cast<double>(ts.remapMerges),
                     static_cast<double>(ts.bankFilterHits)));
    layers.set("ecc.corrected_reads", static_cast<double>(ts.correctedReads));
    layers.set("ecc.uncorrectable_reads",
               static_cast<double>(ts.uncorrectableReads));
    layers.percentiles("bench.read_ns", run.readNs, 1.0);
    layers.percentiles("bench.write_ns", run.writeNs, 1.0);
    benchMetrics(layers, traced_wall, untraced_wall,
                 tracer.busySeconds("dram.decode") +
                     tracer.busySeconds("core.readLine") +
                     tracer.busySeconds("core.write"));
    writeSpans(out, tracer, opt);
    layers.emit(out);
    return out;
}


} // namespace

// ---- Building blocks ---------------------------------------------------

void
Outcome::fail(const std::string &why, uint64_t count)
{
    failed += count;
    if (failures.size() < 20)
        failures.push_back(why);
}

LifetimeConfig
lifetimeConfig(unsigned nodes, double fit)
{
    LifetimeConfig config;
    config.faultModel.fitScale = fit;
    config.nodesPerSystem = nodes;
    config.policy = ReplacePolicy::AfterDue;
    return config;
}

LifetimeSimulator::MechanismFactory
relaxFaultFactory(const LifetimeConfig &config, unsigned ways)
{
    const DramGeometry geometry = config.faultModel.geometry;
    const RepairBudget budget{ways, kRepairCapBytes / kPaperLlc.lineBytes};
    return [geometry, budget] {
        return std::make_unique<RelaxFaultRepair>(geometry, kPaperLlc,
                                                  budget, true);
    };
}

std::vector<MatrixRow>
matrixRows(const LifetimeConfig &config)
{
    const DramGeometry geometry = config.faultModel.geometry;
    const DramAddressMap map = makeAddressMap(config.mapping, geometry);
    auto freeFault = [map](unsigned ways) {
        const RepairBudget budget{ways,
                                  kRepairCapBytes / kPaperLlc.lineBytes};
        return LifetimeSimulator::MechanismFactory([map, budget] {
            return std::make_unique<FreeFaultRepair>(map, kPaperLlc, budget,
                                                     true);
        });
    };
    return {
        {"no-repair", {}},
        {"PPR",
         [geometry] { return std::make_unique<PprRepair>(geometry); }},
        {"FreeFault-1way", freeFault(1)},
        {"RelaxFault-1way", relaxFaultFactory(config, 1)},
        {"FreeFault-4way", freeFault(4)},
        {"RelaxFault-4way", relaxFaultFactory(config, 4)},
    };
}

LifetimeMetrics
tracedClassicTrial(const LifetimeSimulator &simulator,
                   const LifetimeSimulator::MechanismFactory &factory,
                   uint64_t seed, uint64_t trial, SpanTracer &tracer,
                   LifetimeCounts &counts)
{
    const SpanTracer::NameId trial_span = tracer.name("bench.trial");
    const SpanTracer::NameId node_span = tracer.name("bench.node");
    const SpanTracer::NameId sample_call = tracer.name("faults.sampleNode");
    const SpanTracer::NameId simulate_span =
        tracer.name("sim.simulateNode");

    // Mirrors LifetimeSimulator::runSystemTrial under the default
    // CountDue policy (no page-retirement engine).
    tracer.open(trial_span);
    Rng rng = Rng::forkAt(seed, trial);
    const NodeFaultSampler sampler(simulator.config().faultModel);
    std::unique_ptr<RepairMechanism> mechanism;
    if (factory)
        mechanism = factory();
    LifetimeMetrics metrics;
    for (unsigned n = 0; n < simulator.config().nodesPerSystem; ++n) {
        tracer.open(node_span);
        const uint64_t t0 = nowNs();
        const NodeSample node = sampler.sampleNode(rng);
        tracer.leaf(sample_call, t0, nowNs());
        ++counts.nodes;
        counts.arrivals += node.faults.size();
        tracer.open(simulate_span);
        simulator.simulateNode(node, mechanism.get(), nullptr, metrics, rng,
                               nullptr, nullptr, nullptr);
        tracer.close();
        tracer.close();
    }
    tracer.close();
    return metrics;
}

LifetimeMetrics
tracedFleetTrial(const FleetSimulator &fleet,
                 const LifetimeSimulator &simulator,
                 const LifetimeSimulator::MechanismFactory &factory,
                 uint64_t seed, uint64_t trial, SpanTracer &tracer,
                 LifetimeCounts &counts)
{
    const SpanTracer::NameId trial_span = tracer.name("bench.trial");
    const SpanTracer::NameId node_span = tracer.name("bench.node");
    const SpanTracer::NameId sample_call =
        tracer.name("fleet.sampleNodeInto");
    const SpanTracer::NameId simulate_span =
        tracer.name("sim.simulateNode");

    // Mirrors FleetSimulator::runSystemTrial in lazy mode.
    tracer.open(trial_span);
    std::unique_ptr<RepairMechanism> mechanism;
    if (factory)
        mechanism = factory();
    LifetimeMetrics metrics;
    NodeSample pooled;
    for (unsigned n = 0; n < fleet.config().nodesPerSystem; ++n) {
        tracer.open(node_span);
        Rng rng = Rng::forkAt(seed, fleet.nodeStreamIndex(trial, n));
        const uint64_t t0 = nowNs();
        const unsigned arrivals = fleet.sampler().sampleNodeInto(pooled, rng);
        tracer.leaf(sample_call, t0, nowNs());
        ++counts.nodes;
        counts.arrivals += arrivals;
        if (arrivals == 0) {
            ++counts.skipped;
        } else {
            tracer.open(simulate_span);
            simulator.simulateNode(pooled, mechanism.get(), nullptr, metrics,
                                   rng, nullptr, nullptr, nullptr);
            tracer.close();
        }
        tracer.close();
    }
    tracer.close();
    return metrics;
}

std::vector<std::unique_ptr<AccessStream>>
syntheticStreams(const PerfConfig &config,
                 const std::vector<WorkloadParams> &workloads, uint64_t seed)
{
    const uint64_t region = PerfConfig::dramGeometry().nodeBytes() /
                            config.cores;
    std::vector<std::unique_ptr<AccessStream>> streams(config.cores);
    Rng seeder(seed);
    for (unsigned i = 0; i < config.cores && i < workloads.size(); ++i)
        streams[i] = std::make_unique<SyntheticWorkload>(
            workloads[i], region * i, seeder.next());
    return streams;
}

Datapath
buildDatapath(uint64_t seed, size_t lines, SpanTracer *tracer)
{
    Datapath dp;
    ControllerConfig config;
    config.budget = RepairBudget{4, kRepairCapBytes / kPaperLlc.lineBytes};
    dp.controller = std::make_unique<RelaxFaultController>(config);
    RelaxFaultController &controller = *dp.controller;
    const DramGeometry &g = config.geometry;

    // Working set: every DIMM x bank, `rows_per_bank` rows spread over
    // one 64-row window, every column block of each row.
    const unsigned dimms = g.dimmsPerNode();
    const uint64_t per_row = uint64_t{dimms} * g.banksPerDevice *
                             g.colBlocksPerRow;
    const auto rows_per_bank = static_cast<unsigned>(lines / per_row);
    constexpr unsigned kWindow = 64;
    Rng layout = Rng::forkAt(seed, 0);
    const auto base = static_cast<uint32_t>(
        layout.uniformInt(g.rowsPerBank / kWindow) * kWindow);
    std::vector<uint32_t> rows;
    const unsigned stride = kWindow / std::max(rows_per_bank, 1u);
    for (unsigned k = 0; k < rows_per_bank; ++k)
        rows.push_back(base + k * stride +
                       static_cast<uint32_t>(layout.uniformInt(stride)));

    Rng data = Rng::forkAt(seed, 1);
    dp.lines.reserve(lines);
    dp.shadow.reserve(lines);
    for (unsigned dimm = 0; dimm < dimms; ++dimm) {
        for (unsigned bank = 0; bank < g.banksPerDevice; ++bank) {
            for (const uint32_t row : rows) {
                for (unsigned col = 0; col < g.colBlocksPerRow; ++col) {
                    LineCoord coord;
                    coord.channel = dimm / g.ranksPerChannel;
                    coord.rank = dimm % g.ranksPerChannel;
                    coord.bank = bank;
                    coord.row = row;
                    coord.colBlock = col;
                    std::array<uint8_t, 64> line{};
                    for (unsigned w = 0; w < 8; ++w) {
                        const uint64_t word = data.next();
                        std::memcpy(line.data() + 8 * w, &word, 8);
                    }
                    const uint64_t pa = controller.addressMap().encode(coord);
                    controller.write(pa, line.data());
                    dp.lines.push_back(pa);
                    dp.shadow.push_back(line);
                }
            }
        }
    }

    // Faults in banks [0, banks/2) of every DIMM, alternating a row
    // fault and a column fault (every window row), both repairable; then
    // one whole-bank fault on another device of one such bank, which no
    // LLC budget can cover and ECC must correct.
    const SpanTracer::NameId report_call =
        tracer != nullptr ? tracer->name("core.reportFault") : 0;
    auto report = [&](const FaultRecord &fault) {
        const uint64_t t0 = nowNs();
        const bool repaired = controller.reportFault(fault);
        if (tracer != nullptr)
            tracer->leaf(report_call, t0, nowNs());
        ++dp.faultsReported;
        return repaired;
    };
    auto record = [](FaultMode mode, unsigned dimm, unsigned device,
                     RegionCluster cluster) {
        FaultRecord fault;
        fault.mode = mode;
        fault.persistence = Persistence::Permanent;
        fault.parts.push_back({dimm, device, FaultRegion({cluster})});
        return fault;
    };
    std::vector<uint32_t> window(kWindow);
    for (unsigned i = 0; i < kWindow; ++i)
        window[i] = base + i;
    const unsigned devices = g.devicesPerRank();
    const unsigned faulty_banks = g.banksPerDevice / 2;
    std::vector<unsigned> used(dimms * faulty_banks);
    for (unsigned dimm = 0; dimm < dimms; ++dimm) {
        for (unsigned bank = 0; bank < faulty_banks; ++bank) {
            const auto device =
                static_cast<unsigned>(layout.uniformInt(devices));
            used[dimm * faulty_banks + bank] = device;
            RegionCluster cluster;
            cluster.bankMask = 1u << bank;
            const bool row_fault = (dimm + bank) % 2 == 0;
            if (row_fault) {
                cluster.rows =
                    RowSet::of({rows[layout.uniformInt(rows.size())]});
                cluster.cols = ColSet::allCols();
            } else {
                cluster.rows = RowSet::of(window);
                cluster.cols = ColSet::of({static_cast<uint16_t>(
                    layout.uniformInt(g.colBlocksPerRow))});
            }
            if (!report(record(row_fault ? FaultMode::SingleRow
                                         : FaultMode::SingleColumn,
                               dimm, device, cluster)))
                ++dp.repairableFailed;
        }
    }
    const auto bank_dimm = static_cast<unsigned>(layout.uniformInt(dimms));
    const auto bank = static_cast<unsigned>(layout.uniformInt(faulty_banks));
    const unsigned bank_dev = static_cast<unsigned>(
        (used[bank_dimm * faulty_banks + bank] + 1 +
         layout.uniformInt(devices - 1)) % devices);
    RegionCluster bank_fault;
    bank_fault.bankMask = 1u << bank;
    bank_fault.rows = RowSet::allRows();
    bank_fault.cols = ColSet::allCols();
    report(record(FaultMode::SingleBank, bank_dimm, bank_dev, bank_fault));
    return dp;
}

Outcome
runWorkload(const RunOptions &options)
{
    if (options.workload == "lifetime_10x")
        return runLifetime(options);
    if (options.workload == "fleet_1x")
        return runFleet(options);
    if (options.workload == "perf_fig15")
        return runPerf(options);
    if (options.workload == "datapath_rw")
        return runDatapath(options);
    Outcome out;
    out.fail("unknown workload " + options.workload);
    return out;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "lifetime_10x", "fleet_1x", "perf_fig15", "datapath_rw"};
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"faults.sample_s", "s"},
        {"faults.nodes", "count"},
        {"faults.arrivals", "count"},
        {"fleet.sample_s", "s"},
        {"fleet.nodes", "count"},
        {"fleet.skip_ratio", "ratio"},
        {"sim.node_self_s", "s"},
        {"sim.faulty_nodes", "count"},
        {"sim.row_s.no-repair", "s"},
        {"sim.row_s.PPR", "s"},
        {"sim.row_s.FreeFault-1way", "s"},
        {"sim.row_s.RelaxFault-1way", "s"},
        {"sim.row_s.FreeFault-4way", "s"},
        {"sim.row_s.RelaxFault-4way", "s"},
        {"repair.try_s", "s"},
        {"repair.try_s.PPR", "s"},
        {"repair.try_s.FreeFault-1way", "s"},
        {"repair.try_s.RelaxFault-1way", "s"},
        {"repair.try_s.FreeFault-4way", "s"},
        {"repair.try_s.RelaxFault-4way", "s"},
        {"repair.try_calls", "count"},
        {"repair.success_ratio", "ratio"},
        {"repair.try_us_p50", "us"},
        {"repair.try_us_p99", "us"},
        {"repair.reset_s", "s"},
        {"repair.resets", "count"},
        {"perf.run_s", "s"},
        {"perf.stream_s", "s"},
        {"perf.model_s", "s"},
        {"perf.accesses", "count"},
        {"perf.host_ns_per_access", "ns"},
        {"perf.sim_cycles", "cycles"},
        {"perf.sim_minstr_per_s", "Minstr/s"},
        {"cache.llc_hits", "count"},
        {"cache.llc_misses", "count"},
        {"cache.llc_miss_ratio", "ratio"},
        {"dram.activates", "count"},
        {"dram.reads", "count"},
        {"dram.writes", "count"},
        {"dram.decode_s", "s"},
        {"dram.decode_ns_p50", "ns"},
        {"dram.decode_ns_p99", "ns"},
        {"dram.decode_samples", "count"},
        {"core.readline_s", "s"},
        {"core.readline_ns_p50", "ns"},
        {"core.readline_ns_p99", "ns"},
        {"core.readline_samples", "count"},
        {"core.write_s", "s"},
        {"core.write_ns_p50", "ns"},
        {"core.write_ns_p99", "ns"},
        {"core.write_samples", "count"},
        {"core.report_fault_us_p50", "us"},
        {"core.report_fault_samples", "count"},
        {"core.remap_merges", "count"},
        {"core.remap_fills", "count"},
        {"core.bank_filter_hits", "count"},
        {"core.filter_useful_ratio", "ratio"},
        {"ecc.corrected_reads", "count"},
        {"ecc.uncorrectable_reads", "count"},
        {"bench.read_ns_p50", "ns"},
        {"bench.read_ns_p99", "ns"},
        {"bench.write_ns_p50", "ns"},
        {"bench.write_ns_p99", "ns"},
        {"bench.traced_wall_s", "s"},
        {"bench.unattributed_s", "s"},
        {"bench.trace_overhead_frac", "ratio"},
    };
    return list;
}

} // namespace perfbench
