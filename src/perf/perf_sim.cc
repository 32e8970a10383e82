#include "perf/perf_sim.h"

#include <algorithm>
#include <queue>
#include <string>

#include "common/log.h"
#include "telemetry/metrics.h"

namespace relaxfault {

LlcRepairConfig
LlcRepairConfig::ways(unsigned n)
{
    LlcRepairConfig config;
    config.kind = Kind::LockedWays;
    config.lockedWays = n;
    return config;
}

LlcRepairConfig
LlcRepairConfig::randomBytes(uint64_t bytes, uint64_t seed)
{
    LlcRepairConfig config;
    config.kind = Kind::RandomLines;
    config.lockedBytes = bytes;
    config.placementSeed = seed;
    return config;
}

std::string
LlcRepairConfig::label() const
{
    switch (kind) {
      case Kind::None:
        return "no-repair";
      case Kind::LockedWays:
        return std::to_string(lockedWays) + "-way";
      case Kind::RandomLines:
        return std::to_string(lockedBytes / 1024) + "KiB";
    }
    return "?";
}

DramGeometry
PerfConfig::dramGeometry()
{
    DramGeometry geometry;
    geometry.channels = 2;
    geometry.ranksPerChannel = 2;
    return geometry;
}

double
PerfResult::llcMissRate() const
{
    const uint64_t total = llcHits + llcMisses;
    return total == 0 ? 0.0
                      : static_cast<double>(llcMisses) /
                            static_cast<double>(total);
}

double
weightedSpeedup(const PerfResult &shared,
                const std::vector<double> &alone_ipc)
{
    double ws = 0.0;
    for (size_t i = 0; i < shared.cores.size(); ++i) {
        if (i >= alone_ipc.size() || alone_ipc[i] <= 0.0)
            continue;
        ws += shared.cores[i].ipc() / alone_ipc[i];
    }
    return ws;
}

PerfSimulator::PerfSimulator(const PerfConfig &config) : config_(config)
{
}

namespace {

/** One core's execution state during a run. */
struct CoreState
{
    std::unique_ptr<AccessStream> workload;
    std::unique_ptr<CacheModel> l1;
    std::unique_ptr<CacheModel> l2;
    double mlp = 1.0;  ///< max(1, the stream's latency-hiding divisor).
    uint64_t cycle = 0;
    uint64_t instructions = 0;
    uint64_t accessesDone = 0;
    uint64_t measureStartCycle = 0;
    bool recorded = false;
    CoreResult result;
};

/**
 * A cache model for @p geometry, refusing one whose 32-bit tags cannot
 * hold every @p pa_bits-bit address rather than fail mid-run.
 */
CacheModel
makeCache(const CacheGeometry &geometry, bool xor_hash, unsigned pa_bits)
{
    if (pa_bits > CacheModel::addressBitsLimit(geometry))
        fatal("PerfSimulator: " + std::to_string(pa_bits) +
              "-bit addresses need tags wider than 32 bits in a " +
              std::to_string(geometry.sizeBytes) + " B cache");
    return CacheModel(geometry, xor_hash);
}

} // namespace

PerfResult
PerfSimulator::run(const std::vector<WorkloadParams> &core_workloads,
                   const LlcRepairConfig &repair, uint64_t seed) const
{
    const DramGeometry dram_geometry = PerfConfig::dramGeometry();
    const uint64_t region = dram_geometry.nodeBytes() / config_.cores;
    std::vector<std::unique_ptr<AccessStream>> streams(config_.cores);
    Rng seeder(seed);
    for (unsigned i = 0; i < config_.cores; ++i) {
        if (i >= core_workloads.size())
            continue;
        streams[i] = std::make_unique<SyntheticWorkload>(
            core_workloads[i], region * i, seeder.next());
    }
    return runStreams(std::move(streams), repair);
}

PerfResult
PerfSimulator::runStreams(
    std::vector<std::unique_ptr<AccessStream>> streams,
    const LlcRepairConfig &repair) const
{
    ScopedTimer run_timer(
        telemetry_ ? &telemetry_->histogram("perf.run_us") : nullptr);
    const DramGeometry dram_geometry = PerfConfig::dramGeometry();
    const DramAddressMap address_map = makeAddressMap("fig7a", dram_geometry);
    const unsigned pa_bits = dram_geometry.paBits();

    CacheModel llc = makeCache(config_.llc, config_.llcXorHash, pa_bits);
    Rng placement_rng(repair.placementSeed);
    switch (repair.kind) {
      case LlcRepairConfig::Kind::None:
        break;
      case LlcRepairConfig::Kind::LockedWays:
        llc.lockWaysPerSet(repair.lockedWays);
        break;
      case LlcRepairConfig::Kind::RandomLines:
        llc.lockRandomLines(repair.lockedBytes / config_.llc.lineBytes,
                            placement_rng);
        break;
    }

    std::vector<DramChannelTiming> channels;
    channels.reserve(dram_geometry.channels);
    for (unsigned c = 0; c < dram_geometry.channels; ++c)
        channels.emplace_back(dram_geometry, config_.dramTiming,
                              config_.cpuCyclesPerDramCycle);

    std::vector<CoreState> cores(config_.cores);
    for (unsigned i = 0; i < config_.cores && i < streams.size(); ++i) {
        if (!streams[i])
            continue;
        cores[i].workload = std::move(streams[i]);
        cores[i].l1 = std::make_unique<CacheModel>(
            makeCache(config_.l1, false, pa_bits));
        cores[i].l2 = std::make_unique<CacheModel>(
            makeCache(config_.l2, false, pa_bits));
        cores[i].mlp = std::max(1.0, cores[i].workload->mlpFactor());
        cores[i].result.workload = cores[i].workload->name();
    }

    PerfResult result;

    // Issue one memory operation for the globally-oldest core at a time
    // so LLC and DRAM contention happens in (approximate) time order.
    auto older = [&cores](unsigned a, unsigned b) {
        return cores[a].cycle > cores[b].cycle;
    };
    std::priority_queue<unsigned, std::vector<unsigned>, decltype(older)>
        ready(older);
    for (unsigned i = 0; i < config_.cores; ++i) {
        if (cores[i].workload)
            ready.push(i);
    }

    const uint64_t warmup = config_.warmupAccessesPerCore;
    unsigned live_cores = static_cast<unsigned>(ready.size());

    while (!ready.empty() && live_cores > 0) {
        const unsigned id = ready.top();
        ready.pop();
        CoreState &core = cores[id];

        const MemAccess access = core.workload->next();
        ++core.accessesDone;
        const bool measuring = core.accessesDone > warmup;
        if (core.accessesDone == warmup + 1)
            core.measureStartCycle = core.cycle;

        // Compute gap (issueWidth-wide).
        core.cycle += (access.gapInstructions + config_.issueWidth - 1) /
                      config_.issueWidth;
        if (measuring)
            core.instructions += access.gapInstructions + 1;

        // Memory hierarchy walk.
        uint64_t latency = config_.l1LatencyCycles;
        const CacheAccessResult l1r = core.l1->access(access.pa,
                                                      access.write);
        if (!l1r.hit) {
            latency = config_.l2LatencyCycles;
            const CacheAccessResult l2r =
                core.l2->access(access.pa, access.write);
            if (l1r.evictedDirty)
                core.l2->access(l1r.evictedPa, true);
            if (!l2r.hit) {
                latency = config_.llcLatencyCycles;
                const CacheAccessResult llcr =
                    llc.access(access.pa, false);
                if (l2r.evictedDirty)
                    llc.access(l2r.evictedPa, true);
                if (measuring) {
                    if (llcr.hit)
                        ++result.llcHits;
                    else
                        ++result.llcMisses;
                }
                if (!llcr.hit) {
                    const LineCoord coord = address_map.decode(access.pa);
                    const uint64_t done = channels[coord.channel].access(
                        coord.rank, coord.bank, coord.row, false,
                        core.cycle);
                    // Out-of-order cores overlap misses; charge the
                    // exposed fraction of the DRAM latency.
                    latency = config_.llcLatencyCycles +
                        static_cast<uint64_t>(
                            static_cast<double>(done - core.cycle) /
                            core.mlp);
                }
                if (llcr.evictedDirty) {
                    const LineCoord wb = address_map.decode(llcr.evictedPa);
                    channels[wb.channel].access(wb.rank, wb.bank, wb.row,
                                                true, core.cycle);
                }
            }
        }
        core.cycle += latency;

        if (core.instructions >= config_.instructionsPerCore &&
            !core.recorded) {
            core.recorded = true;
            core.result.instructions = core.instructions;
            core.result.cycles = core.cycle - core.measureStartCycle;
            --live_cores;
            // Finished cores keep running (and contending) until every
            // core has committed its budget, as in the paper.
        }
        if (live_cores > 0)
            ready.push(id);
    }

    uint64_t elapsed = 0;
    for (auto &core : cores) {
        if (!core.workload)
            continue;
        if (!core.recorded) {
            core.result.instructions = core.instructions;
            core.result.cycles = core.cycle - core.measureStartCycle;
        }
        elapsed = std::max(elapsed, core.cycle);
        result.cores.push_back(core.result);
    }
    result.elapsedCycles = elapsed;
    for (auto &channel : channels) {
        channel.finalize(elapsed);
        result.dram += channel.counts();
    }
    if (telemetry_ != nullptr)
        publishPerfResult(*telemetry_, result);
    return result;
}

void
publishPerfResult(MetricRegistry &registry, const PerfResult &result)
{
    registry.gauge("perf.llc_hits").set(
        static_cast<int64_t>(result.llcHits));
    registry.gauge("perf.llc_misses").set(
        static_cast<int64_t>(result.llcMisses));
    registry.gauge("perf.elapsed_cycles").set(
        static_cast<int64_t>(result.elapsedCycles));
    registry.gauge("perf.dram_activates").set(
        static_cast<int64_t>(result.dram.activates));
    registry.gauge("perf.dram_reads").set(
        static_cast<int64_t>(result.dram.reads));
    registry.gauge("perf.dram_writes").set(
        static_cast<int64_t>(result.dram.writes));
    Log2Histogram &core_cycles = registry.histogram("perf.core_cycles");
    for (const CoreResult &core : result.cores)
        core_cycles.record(core.cycles);
}

double
PerfSimulator::aloneIpc(const WorkloadParams &workload,
                        uint64_t seed) const
{
    const PerfResult alone = run({workload}, LlcRepairConfig::none(),
                                 seed);
    return alone.cores.empty() ? 0.0 : alone.cores.front().ipc();
}

} // namespace relaxfault
