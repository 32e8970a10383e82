#include "repair/freefault_repair.h"

#include "telemetry/metrics.h"

namespace relaxfault {

FreeFaultRepair::FreeFaultRepair(const DramAddressMap &map,
                                 const CacheGeometry &llc,
                                 const RepairBudget &budget, bool xor_hash)
    : map_(map), indexer_(llc, xor_hash), tracker_(llc.sets(), budget)
{
}

std::string
FreeFaultRepair::name() const
{
    return indexer_.xorHash() ? "FreeFault" : "FreeFault-nohash";
}

bool
FreeFaultRepair::tryRepair(const FaultRecord &fault)
{
    const DramGeometry &geometry = map_.geometry();
    uint64_t total_lines = 0;
    for (const auto &part : fault.parts) {
        if (part.region.massive())
            return false;
        total_lines += part.region.lineSliceCount(geometry);
    }
    if (total_lines > tracker_.budget().maxLines)
        return false;

    if (colDelta_.empty()) {
        const uint64_t origin = map_.encode(LineCoord{});
        colDelta_.resize(geometry.colBlocksPerRow);
        for (unsigned col = 0; col < geometry.colBlocksPerRow; ++col) {
            LineCoord coord;
            coord.colBlock = col;
            const uint64_t delta = map_.encode(coord) ^ origin;
            colDelta_[col] = {indexer_.setIndex(delta),
                              delta >> geometry.offsetBits()};
        }
    }

    // Lines stream into the tracker as the regions are walked; the walk
    // stops at the first one that does not fit. Each (bank, row) is
    // encoded once, at column 0; its lines are that line XOR colDelta_.
    return tracker_.tryAdd([&](RepairLineTracker::Stage &stage) {
        for (const auto &part : fault.parts) {
            LineCoord coord;
            coord.channel = part.dimm / geometry.ranksPerChannel;
            coord.rank = part.dimm % geometry.ranksPerChannel;
            const bool fits = part.region.forEachSliceRow(
                geometry,
                [&](unsigned bank, uint32_t row, const ColSet &cols) {
                    coord.bank = bank;
                    coord.row = row;
                    const uint64_t pa = map_.encode(coord);
                    const uint64_t set = indexer_.setIndex(pa);
                    const uint64_t key = pa >> geometry.offsetBits();
                    const uint64_t col_count = cols.count(geometry);
                    for (uint64_t ci = 0; ci < col_count; ++ci) {
                        const LineDelta &delta =
                            colDelta_[cols.all ? ci : cols.cols[ci]];
                        if (!stage(set ^ delta.set, key ^ delta.key))
                            return false;
                    }
                    return true;
                });
            if (!fits)
                return;
        }
    });
}

void
FreeFaultRepair::reset()
{
    tracker_.reset();
}

void
FreeFaultRepair::publishTelemetry(MetricRegistry &registry) const
{
    RepairMechanism::publishTelemetry(registry);
    const std::string prefix = "repair." + name();
    const uint64_t occupied = tracker_.publishSetLoads(
        registry.histogram(prefix + ".locked_ways_per_set"));
    registry.histogram(prefix + ".occupied_sets").record(occupied);
}

bool
FreeFaultRepair::lineRepaired(uint64_t pa) const
{
    return tracker_.contains(indexer_.setIndex(pa),
                             pa >> map_.geometry().offsetBits());
}

} // namespace relaxfault
