#include "fleet/fleet_sim.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/log.h"
#include "dram/address_map.h"
#include "repair/page_retirement.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/stats_plane.h"

namespace relaxfault {

const char *
fleetModeName(FleetMode mode)
{
    return mode == FleetMode::Lazy ? "lazy" : "eager";
}

FleetNodeSampler::FleetNodeSampler(const FaultModelConfig &config)
    : inner_(config), dimms_(config.geometry.dimmsPerNode())
{
    perDimmBase_ = inner_.perDeviceFitTotal() * config.fitScale * 1e-9 *
                   config.missionHours * config.geometry.devicesPerRank();

    if (dimms_ > 64) {
        fatal("fleet sampler: more than 64 DIMMs/node is unsupported "
              "(per-DIMM attribution table is stack-bounded)");
    }

    if (!config.accelerationEnabled) {
        // One certain class at the nominal rate; no class draw at all,
        // matching sampleAcceleration's draw-free disabled path.
        classMean_.assign(1, perDimmBase_ * static_cast<double>(dimms_));
        return;
    }

    if (dimms_ > kMaxAccelDimms) {
        fatal("fleet sampler: " + std::to_string(dimms_) +
              " DIMMs/node needs a " +
              std::to_string(1ull << (1 + dimms_)) +
              "-entry acceleration-class CDF (cap " +
              std::to_string(kMaxAccelDimms) +
              " DIMMs); use the classic engine for this geometry");
    }

    // Class c: bit 0 = accelerated node, bit 1+d = accelerated DIMM d.
    // The flags are independent Bernoullis, so P(c) is a product; the
    // class's aggregate arrival mean is the sum of its per-DIMM means.
    const size_t classes = size_t{1} << (1 + dimms_);
    accelCdf_.resize(classes);
    classMean_.resize(classes);
    const double p_node = config.acceleratedNodeFraction;
    const double p_dimm = config.acceleratedDimmFraction;
    // A DIMM's rate factor takes one of four values: look them up
    // rather than call out for each of the 4096 (class, DIMM) pairs of
    // an 8-DIMM node, which was most of the cost of building a sampler.
    double factor[2][2];
    for (const bool node_accel : {false, true}) {
        for (const bool dimm_accel : {false, true})
            factor[node_accel][dimm_accel] =
                inner_.dimmFactor(node_accel, dimm_accel);
    }
    double cumulative = 0.0;
    for (size_t c = 0; c < classes; ++c) {
        const bool node_accel = (c & 1) != 0;
        double prob = node_accel ? p_node : 1.0 - p_node;
        double mean = 0.0;
        for (unsigned d = 0; d < dimms_; ++d) {
            const bool dimm_accel = ((c >> (1 + d)) & 1) != 0;
            prob *= dimm_accel ? p_dimm : 1.0 - p_dimm;
            mean += perDimmBase_ * factor[node_accel][dimm_accel];
        }
        cumulative += prob;
        accelCdf_[c] = cumulative;
        classMean_[c] = mean;
    }
    // The masses sum to 1 exactly up to rounding; pin the tail so a
    // uniform draw of 1-epsilon can never fall off the table.
    accelCdf_.back() = 1.0;
}

double
FleetNodeSampler::zeroFaultProbability() const
{
    if (accelCdf_.empty())
        return std::exp(-classMean_[0]);
    double p_zero = 0.0;
    double previous = 0.0;
    for (size_t c = 0; c < accelCdf_.size(); ++c) {
        p_zero += (accelCdf_[c] - previous) * std::exp(-classMean_[c]);
        previous = accelCdf_[c];
    }
    return p_zero;
}

unsigned
FleetNodeSampler::sampleNodeInto(NodeSample &sample, Rng &rng) const
{
    // Draw 1: acceleration class (skipped when acceleration is off).
    size_t cls = 0;
    if (!accelCdf_.empty()) {
        const double u = rng.uniform();
        const auto it =
            std::lower_bound(accelCdf_.begin(), accelCdf_.end(), u);
        cls = static_cast<size_t>(it - accelCdf_.begin());
        if (cls >= accelCdf_.size())
            cls = accelCdf_.size() - 1;
    }
    sample.acceleratedNode = (cls & 1) != 0;
    sample.acceleratedDimm.assign(dimms_, false);
    for (unsigned d = 0; d < dimms_; ++d)
        sample.acceleratedDimm[d] = ((cls >> (1 + d)) & 1) != 0;
    sample.faults.clear();

    // Draw 2: ONE aggregate arrival count over the whole node
    // (superposition of the per-DIMM Poisson processes). Zero — the
    // common case — is the skip-ahead exit: no allocation happened.
    const uint64_t total = rng.poisson(classMean_[cls]);
    if (total == 0)
        return 0;

    // Attribute each arrival to a DIMM proportionally to the per-DIMM
    // means (conditioning a superposed Poisson on its total makes the
    // per-arrival source iid with these weights), then draw the fault's
    // attributes exactly as the classic sampler's inner step does.
    double dimm_cdf[64];  // dimmsPerNode <= 64, checked at construction
    double weight_sum = 0.0;
    for (unsigned d = 0; d < dimms_; ++d) {
        weight_sum += perDimmBase_ *
            inner_.dimmFactor(sample.acceleratedNode,
                              sample.acceleratedDimm[d]);
        dimm_cdf[d] = weight_sum;
    }
    sample.faults.reserve(total);
    for (uint64_t i = 0; i < total; ++i) {
        const double u = rng.uniform() * weight_sum;
        unsigned dimm = 0;
        while (dimm + 1 < dimms_ && u >= dimm_cdf[dimm])
            ++dimm;
        sample.faults.push_back(inner_.sampleFaultAt(dimm, rng));
    }
    std::sort(sample.faults.begin(), sample.faults.end(),
              [](const FaultRecord &a, const FaultRecord &b) {
                  return a.timeHours < b.timeHours;
              });
    return static_cast<unsigned>(total);
}

FleetSimulator::FleetSimulator(const LifetimeConfig &config)
    : sim_(config), sampler_(config.faultModel)
{
}

LifetimeMetrics
FleetSimulator::runSystemTrial(uint64_t trial,
                               const MechanismFactory &factory,
                               uint64_t seed, FleetMode mode,
                               MetricRegistry *telemetry) const
{
    const LifetimeConfig &cfg = config();
    std::unique_ptr<RepairMechanism> mechanism;
    if (factory)
        mechanism = factory();

    std::unique_ptr<PageRetirement> retirement;
    if (mechanism != nullptr &&
        cfg.degradation == DegradationPolicy::RetirePages) {
        retirement = std::make_unique<PageRetirement>(
            makeAddressMap(cfg.mapping, cfg.faultModel.geometry),
            cfg.retirePageBytes, cfg.retireMaxBytes);
    }

    const uint64_t nodes = cfg.nodesPerSystem;
    const uint64_t base = trial * nodes;
    LifetimeMetrics metrics;

    if (mode == FleetMode::Eager) {
        // Reference mode: materialize the whole fleet first, then
        // simulate. Same per-node streams and draw order as lazy, so
        // the results are bit-identical; memory is O(fleet).
        std::vector<NodeSample> fleet(nodes);
        std::vector<Rng> streams;
        streams.reserve(nodes);
        for (uint64_t n = 0; n < nodes; ++n) {
            streams.push_back(Rng::forkAt(seed, base + n));
            sampler_.sampleNodeInto(fleet[n], streams.back());
        }
        for (uint64_t n = 0; n < nodes; ++n) {
            if (fleet[n].faults.empty())
                continue;
            if (retirement != nullptr)
                retirement->reset();
            sim_.simulateNode(fleet[n], mechanism.get(),
                              retirement.get(), metrics, streams[n],
                              telemetry, nullptr, nullptr);
        }
        return metrics;
    }

    // Lazy mode: one pooled NodeSample, reused across the fleet. Nodes
    // whose aggregate arrival draw is zero cost ~2 uniforms and touch
    // no heap; only faulty nodes run the full pipeline.
    NodeSample pooled;
    for (uint64_t n = 0; n < nodes; ++n) {
        Rng rng = Rng::forkAt(seed, base + n);
        if (sampler_.sampleNodeInto(pooled, rng) == 0)
            continue;
        if (retirement != nullptr)
            retirement->reset();
        sim_.simulateNode(pooled, mechanism.get(), retirement.get(),
                          metrics, rng, telemetry, nullptr, nullptr);
    }
    return metrics;
}

std::vector<LifetimeMetrics>
FleetSimulator::runTrialRange(uint64_t first_trial, unsigned count,
                              const MechanismFactory &factory,
                              uint64_t seed,
                              const FleetTrialOptions &options) const
{
    // Trial t owns slot t and node streams depend only on (seed, global
    // trial, node), so any thread may run any trial — the same
    // bit-identical-at-any-split invariant as the classic engine's
    // runTrialRange, extended down to per-node granularity.
    std::vector<LifetimeMetrics> per_trial(count);
    ProgressMeter meter(options.progressLabel, count, options.progress,
                        options.clock);
    StatsPublisher *const stats = options.stats;
    TrialTelemetry fold(options.metrics, /*audit_counters=*/false);
    Log2Histogram *const h_trial_us = fold.trialUs();

    parallelFor(
        count,
        [&](size_t begin, size_t end) {
            HistogramBatch trial_us_batch(h_trial_us);
            for (size_t t = begin; t < end; ++t) {
                if (stats != nullptr)
                    stats->trialStarted();
                {
                    const ProfilePhase profile(
                        ProfilePhaseId::FleetTrial);
                    ScopedTimer timer(&trial_us_batch);
                    per_trial[t] = runSystemTrial(
                        first_trial + t, factory, seed, options.mode,
                        options.metrics);
                }
                fold.foldTrial(per_trial[t]);
                if (stats != nullptr)
                    stats->trialFinished();
                meter.tick();
            }
        },
        options.parallel);
    meter.finish();
    return per_trial;
}

LifetimeSummary
FleetSimulator::runTrials(unsigned trials,
                          const MechanismFactory &factory, uint64_t seed,
                          const FleetTrialOptions &options) const
{
    const std::vector<LifetimeMetrics> per_trial =
        runTrialRange(0, trials, factory, seed, options);
    LifetimeSummary summary;
    for (const LifetimeMetrics &m : per_trial)
        summary.addTrial(m);
    return summary;
}

} // namespace relaxfault
