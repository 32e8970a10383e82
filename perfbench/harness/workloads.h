/**
 * @file
 * The four benchmark workloads and the building blocks they share with
 * the harness's tests.
 *
 * Every workload is closed-loop with one caller: it sets up from its
 * seed, then runs rounds of work until `seconds` have passed (at least
 * one round), checking simulated outputs as it goes. The
 * untraced run reports end-to-end metrics; the traced run repeats part
 * of the same work one level down through public functions, timing each
 * layer from here, and must reproduce the untraced outputs bit for bit.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/relaxfault_controller.h"
#include "fleet/fleet_sim.h"
#include "perf/perf_sim.h"
#include "sim/lifetime.h"
#include "spans.h"
#include "wrappers.h"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir;   ///< Where the traced run writes its spans.
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;  ///< First few failure messages.
    std::vector<Metric> metrics;
    std::vector<std::string> notes;     ///< Informational lines.

    /** Count @p count failed operations, keeping the message. */
    void fail(const std::string &why, uint64_t count = 1);
    void note(const std::string &line) { notes.push_back(line); }
};

/** Workload names, in the order the benchmark lists them. */
const std::vector<std::string> &workloadNames();

/** Run one workload; unknown names are a failed outcome. */
Outcome runWorkload(const RunOptions &options);

/** Per-layer metric names and units, as the traced run reports them. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

// ---- Building blocks (shared with the tests) ---------------------------

/** One row of the Fig. 12b repair matrix. */
struct MatrixRow
{
    std::string label;
    relaxfault::LifetimeSimulator::MechanismFactory factory; ///< Empty = none.
};

/** Lifetime configuration: ReplA, @p nodes per system, @p fit x FIT. */
relaxfault::LifetimeConfig lifetimeConfig(unsigned nodes, double fit);

/** No repair, PPR, FreeFault-1/4way, RelaxFault-1/4way (paper LLC). */
std::vector<MatrixRow> matrixRows(const relaxfault::LifetimeConfig &config);

/** RelaxFault with @p ways per set (paper LLC, 2 MiB cap). */
relaxfault::LifetimeSimulator::MechanismFactory
relaxFaultFactory(const relaxfault::LifetimeConfig &config, unsigned ways);

/** Per-layer counts the traced lifetime replays add up. */
struct LifetimeCounts
{
    uint64_t nodes = 0;
    uint64_t arrivals = 0;
    uint64_t skipped = 0;   ///< Fleet nodes with no arrivals.
};

/**
 * Trial @p trial of the classic engine, one level down: per node,
 * `NodeFaultSampler::sampleNode` then `simulateNode`, each timed. Equals
 * the corresponding `runTrials` trial bit for bit.
 */
relaxfault::LifetimeMetrics
tracedClassicTrial(const relaxfault::LifetimeSimulator &simulator,
                   const relaxfault::LifetimeSimulator::MechanismFactory
                       &factory,
                   uint64_t seed, uint64_t trial, SpanTracer &tracer,
                   LifetimeCounts &counts);

/**
 * Trial @p trial of the fleet engine (lazy), one level down: per node,
 * `FleetNodeSampler::sampleNodeInto`, then `simulateNode` for nodes
 * with arrivals. @p simulator must share the fleet's configuration.
 */
relaxfault::LifetimeMetrics
tracedFleetTrial(const relaxfault::FleetSimulator &fleet,
                 const relaxfault::LifetimeSimulator &simulator,
                 const relaxfault::LifetimeSimulator::MechanismFactory
                     &factory,
                 uint64_t seed, uint64_t trial, SpanTracer &tracer,
                 LifetimeCounts &counts);

/**
 * Per-core synthetic streams built exactly as `PerfSimulator::run`
 * builds them (same regions, same seeding order).
 */
std::vector<std::unique_ptr<relaxfault::AccessStream>>
syntheticStreams(const relaxfault::PerfConfig &config,
                 const std::vector<relaxfault::WorkloadParams> &workloads,
                 uint64_t seed);

/** The datapath workload's controller, working set and shadow copy. */
struct Datapath
{
    std::unique_ptr<relaxfault::RelaxFaultController> controller;
    std::vector<uint64_t> lines;                       ///< Line PAs.
    std::vector<std::array<uint8_t, 64>> shadow;       ///< Expected data.
    unsigned faultsReported = 0;
    unsigned repairableFailed = 0;  ///< Repairable faults left unrepaired.
};

/**
 * Build the datapath: fill `lines` working-set lines, then report the
 * seeded faults. When @p tracer is non-null each `reportFault` is
 * timed as `core.reportFault`.
 */
Datapath buildDatapath(uint64_t seed, size_t lines, SpanTracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
