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

    // Lines stream into the tracker as the regions are walked; the walk
    // stops at the first one that does not fit.
    return tracker_.tryAdd([&](RepairLineTracker::Stage &stage) {
        for (const auto &part : fault.parts) {
            LineCoord coord;
            coord.channel = part.dimm / geometry.ranksPerChannel;
            coord.rank = part.dimm % geometry.ranksPerChannel;
            const bool fits = part.region.forEachSlice(
                geometry,
                [&](unsigned bank, uint32_t row, uint16_t col_block) {
                    coord.bank = bank;
                    coord.row = row;
                    coord.colBlock = col_block;
                    const uint64_t pa = map_.encode(coord);
                    return stage(indexer_.setIndex(pa),
                                 pa >> geometry.offsetBits());
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
