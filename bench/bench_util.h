/**
 * @file
 * Shared helpers for the figure/table benches: standard configurations,
 * mechanism factories, and run-scale handling (`--trials`, `--seed`,
 * `--faulty-nodes` let a laptop run shrink or grow every experiment
 * without recompiling).
 */

#ifndef RELAXFAULT_BENCH_BENCH_UTIL_H
#define RELAXFAULT_BENCH_BENCH_UTIL_H

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_geometry.h"
#include "common/cli.h"
#include "common/log.h"
#include "dram/address_map.h"
#include "repair/degradation.h"
#include "repair/freefault_repair.h"
#include "repair/no_repair.h"
#include "repair/ppr_repair.h"
#include "repair/relaxfault_repair.h"
#include "sim/lifetime.h"
#include "tracing/trace_export.h"
#include "tracing/tracer.h"

namespace relaxfault::bench {

/**
 * Build `TrialRunOptions` from the shared bench flags: `--threads=N`
 * (0 = auto via RELAXFAULT_THREADS / hardware concurrency) and
 * `--progress` (trials/sec + ETA on stderr). Thread count never changes
 * results — only wall-clock time.
 */
inline TrialRunOptions
trialRunOptions(const CliOptions &options)
{
    TrialRunOptions run;
    run.parallel.threads =
        static_cast<unsigned>(options.getNonNegativeInt("threads", 0));
    run.progress = options.has("progress");
    return run;
}

/**
 * Parse `--degrade=retire|due|failstop` (default "due", the paper's
 * behavior). The chosen policy changes simulation results, so callers
 * must fold its name into their campaign fingerprint.
 */
inline DegradationPolicy
degradeFlag(const CliOptions &options)
{
    const std::string name = options.getString("degrade", "due");
    const auto policy = parseDegradationPolicy(name);
    if (!policy.has_value())
        fatal("--degrade=" + name +
              " is not a policy (expected retire | due | failstop)");
    return *policy;
}

/**
 * Parse `--audit` / `--audit-every=N` into `AuditOptions`. Auditing is
 * observation-only (it cannot change any result, only add `audit.*`
 * counters), so it never enters a campaign fingerprint.
 */
inline AuditOptions
auditFlag(const CliOptions &options)
{
    AuditOptions audit;
    audit.enabled = options.has("audit");
    audit.everyFaults = static_cast<unsigned>(
        options.getPositiveInt("audit-every", 1));
    return audit;
}

/**
 * Parse `--mapping=NAME` (default "fig7a", the paper's Fig. 7a scheme).
 * A typo'd name is fatal with the registry's known-names list. The
 * chosen mapping changes simulation results, so callers must fold the
 * returned name into their campaign fingerprint.
 */
inline std::string
mappingFlag(const CliOptions &options)
{
    const std::string name = options.getString("mapping", "fig7a");
    if (!isAddressMappingName(name))
        fatal("--mapping=" + name + " is not a mapping scheme (expected " +
              addressMappingNamesHint() + ")");
    return name;
}

/**
 * A bench's causal-trace artifact, built from `--trace[=PATH]` and
 * `--trace-filter=KINDS`. `tracer` is null when tracing is off — wire
 * `get()` straight into `TrialRunOptions.tracer` and the disabled path
 * costs one branch per would-be event.
 */
struct BenchTrace
{
    std::unique_ptr<Tracer> tracer;  ///< Null = tracing off.
    std::string path;                ///< Aggregate trace output file.

    Tracer *get() const { return tracer.get(); }

    /**
     * Publish the aggregate trace document (no-op when off). Callers
     * skip this on an interrupted run, mirroring BenchReport::write —
     * the per-shard campaign flushes are the partial-run artifact.
     */
    void write() const
    {
        if (tracer == nullptr)
            return;
        if (!writeTraceFile(*tracer, path))
            fatal("cannot write --trace output file " + path);
        inform("wrote " + path + " (" +
               std::to_string(tracer->recorded()) + " events, " +
               std::to_string(tracer->dropped()) + " dropped)");
    }
};

/**
 * Parse the tracing flags. Bare `--trace` defaults the output to
 * `TRACE_<bench>.json`; `--trace-filter` without `--trace` is fatal
 * (a filter with nothing to filter is a typo'd run), as is an unknown
 * kind name in the filter spec. Tracing never changes results, so —
 * like auditing — it does not enter campaign fingerprints.
 */
inline BenchTrace
traceFlag(const CliOptions &options, const std::string &bench_name)
{
    BenchTrace trace;
    if (!options.has("trace")) {
        if (options.has("trace-filter"))
            fatal("--trace-filter requires --trace (nothing to filter)");
        return trace;
    }
    trace.path = options.getString("trace", "");
    if (trace.path.empty())
        trace.path = "TRACE_" + bench_name + ".json";
    const std::string spec = options.getString("trace-filter", "all");
    const auto filter = parseTraceFilter(spec);
    if (!filter.has_value())
        fatal("--trace-filter=" + spec +
              " has an unknown event kind (expected a comma-separated "
              "subset of fault,repair,scrub,budget,degrade,verdict,"
              "replace,span,heartbeat, or \"all\")");
    TracerConfig config;
    config.filter = *filter;
    trace.tracer = std::make_unique<Tracer>(config);
    return trace;
}

/**
 * Every flag the coverage benches read (fig10, fig11,
 * ablation_fault_model, ext_organizations): they sample a faulty-node
 * population, so they take no lifetime, campaign or worker flags.
 */
inline const std::vector<std::string> kCoverageBenchFlags = {
    "faulty-nodes", "seed", "json"};

/** The paper's LLC: 8MiB, 16-way, 64B lines. */
inline CacheGeometry
paperLlc()
{
    return CacheGeometry{8 * 1024 * 1024, 16, 64};
}

/** Capacity cap used for the coverage curves (x-axis of Fig. 10). */
inline constexpr uint64_t kCoverageCapBytes = 2 * 1024 * 1024;

/** Which repair mechanism a bench row evaluates. */
struct MechanismSpec
{
    enum class Kind { None, RelaxFault, FreeFault, Ppr };
    Kind kind = Kind::None;
    unsigned ways = 1;      ///< Per-set way ceiling (LLC mechanisms).
    bool hash = true;       ///< LLC set hash / RelaxFault tag fold.
    std::string label;

    static MechanismSpec none() { return {Kind::None, 0, true, "none"}; }

    static MechanismSpec
    relaxFault(unsigned ways, bool hash = true)
    {
        return {Kind::RelaxFault, ways, hash,
                std::string("RelaxFault-") + std::to_string(ways) + "way" +
                    (hash ? "" : "-nohash")};
    }

    static MechanismSpec
    freeFault(unsigned ways, bool hash = true)
    {
        return {Kind::FreeFault, ways, hash,
                std::string("FreeFault-") + std::to_string(ways) + "way" +
                    (hash ? "" : "-nohash")};
    }

    static MechanismSpec ppr() { return {Kind::Ppr, 0, true, "PPR"}; }
};

/**
 * Build a mechanism factory for a spec against a node geometry, routing
 * DRAM-coordinate-aware mechanisms through @p map (which must be built
 * against the same geometry).
 */
inline LifetimeSimulator::MechanismFactory
makeFactory(const MechanismSpec &spec, const DramGeometry &geometry,
            const DramAddressMap &map)
{
    const CacheGeometry llc = paperLlc();
    const RepairBudget budget{spec.ways,
                              kCoverageCapBytes / llc.lineBytes};
    switch (spec.kind) {
      case MechanismSpec::Kind::None:
        return [] { return std::make_unique<NoRepair>(); };
      case MechanismSpec::Kind::RelaxFault:
        return [geometry, llc, budget, spec] {
            return std::make_unique<RelaxFaultRepair>(geometry, llc,
                                                      budget, spec.hash);
        };
      case MechanismSpec::Kind::FreeFault:
        return [map, llc, budget, spec] {
            return std::make_unique<FreeFaultRepair>(map, llc, budget,
                                                     spec.hash);
        };
      case MechanismSpec::Kind::Ppr:
        return [geometry] { return std::make_unique<PprRepair>(geometry); };
    }
    return {};
}

/** Factory with the paper's default Fig. 7a address map. */
inline LifetimeSimulator::MechanismFactory
makeFactory(const MechanismSpec &spec, const DramGeometry &geometry)
{
    return makeFactory(spec, geometry, makeAddressMap("fig7a", geometry));
}

} // namespace relaxfault::bench

#endif // RELAXFAULT_BENCH_BENCH_UTIL_H
