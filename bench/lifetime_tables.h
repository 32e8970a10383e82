/**
 * @file
 * The repair-mechanism matrix of the lifetime-simulation benches (Figs.
 * 12-14): runs the 16,384-node 6-year Monte Carlo for the no-repair /
 * 1-way / 4-way x {PPR, FreeFault, RelaxFault} matrix under a
 * replacement policy and prints one metric.
 */

#ifndef RELAXFAULT_BENCH_LIFETIME_TABLES_H
#define RELAXFAULT_BENCH_LIFETIME_TABLES_H

#include <functional>
#include <iostream>
#include <vector>

#include "campaign_bench.h"
#include "common/table.h"

namespace relaxfault::bench {

/** Metric extractor from a trial summary. */
using MetricFn = std::function<const RunningStat &(const LifetimeSummary &)>;

/**
 * Run the repair-mechanism matrix of Figs. 12-14 on @p bench and print
 * `metric` with its 95% CI. Each mechanism row is one campaign unit
 * keyed `panel/mechanism`, and adds one result row to the report.
 * Returns false if a stop signal interrupted the matrix; the table is
 * then not printed and the caller returns `bench.finish()`.
 */
inline bool
runRepairMatrix(LifetimeBench &bench, const LifetimeConfig &base_config,
                const MetricFn &metric, const std::string &metric_name,
                const std::string &panel)
{
    const DramGeometry geometry = base_config.faultModel.geometry;
    const DramAddressMap address_map =
        makeAddressMap(base_config.mapping, geometry);
    const LifetimeSimulator simulator(base_config);

    struct Row
    {
        std::string label;
        MechanismSpec spec;
    };
    const std::vector<Row> rows = {
        {"no-repair", MechanismSpec::none()},
        {"PPR", MechanismSpec::ppr()},
        {"FreeFault-1way", MechanismSpec::freeFault(1)},
        {"RelaxFault-1way", MechanismSpec::relaxFault(1)},
        {"FreeFault-4way", MechanismSpec::freeFault(4)},
        {"RelaxFault-4way", MechanismSpec::relaxFault(4)},
    };

    TextTable table;
    table.setHeader({"mechanism", metric_name, "95%CI", "vs-no-repair"});
    double baseline = 0.0;
    for (const auto &row : rows) {
        const LifetimeSimulator::MechanismFactory factory =
            row.spec.kind == MechanismSpec::Kind::None
                ? LifetimeSimulator::MechanismFactory{}
                : makeFactory(row.spec, geometry, address_map);
        const CampaignResult unit_result =
            bench.runUnit(panel + "/" + row.label, simulator, factory,
                          row.label + " trials");
        if (unit_result.interrupted)
            return false;
        const RunningStat &stat = metric(unit_result.summary);
        if (row.spec.kind == MechanismSpec::Kind::None)
            baseline = stat.mean();
        const double reduction = baseline > 0.0
            ? 100.0 * (1.0 - stat.mean() / baseline) : 0.0;
        table.addRow({row.label, TextTable::num(stat.mean(), 3),
                      "+/-" + TextTable::num(stat.ci95(), 3),
                      row.spec.kind == MechanismSpec::Kind::None
                          ? std::string("-")
                          : "-" + TextTable::num(reduction, 1) + "%"});
        ResultRow &json_row = bench.report().addRow();
        json_row
            .set("panel", panel)
            .set("mechanism", row.label)
            .set("metric", metric_name)
            .set("mean", stat.mean())
            .set("ci95", stat.ci95())
            .set("reduction_vs_no_repair_pct",
                 row.spec.kind == MechanismSpec::Kind::None
                     ? 0.0 : reduction);
        // A quarantined unit's numbers miss those shards' trials;
        // stamp the row so no one diffs it against a clean run.
        if (!unit_result.quarantinedShards.empty())
            json_row.set("quarantined_shards",
                         static_cast<uint64_t>(
                             unit_result.quarantinedShards.size()));
    }
    table.print(std::cout);
    return true;
}

} // namespace relaxfault::bench

#endif // RELAXFAULT_BENCH_LIFETIME_TABLES_H
