#include "faults/fault_set.h"

namespace relaxfault {

namespace {

/** Deterministic 32-bit mix of a slice's coordinates (stuck values). */
uint32_t
stuckValueFor(const DeviceCoord &coord)
{
    uint64_t x = coord.dimm;
    x = x * 31 + coord.device;
    x = x * 131 + coord.bank;
    x = x * 65599 + coord.row;
    x = x * 131071 + coord.colBlock;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return static_cast<uint32_t>(x);
}

} // namespace

FaultSet::FaultSet(const DramGeometry &geometry)
    : geometry_(geometry), byDevice_(geometry.devicesPerNode())
{
}

size_t
FaultSet::slotOf(unsigned dimm, unsigned device) const
{
    if (dimm >= geometry_.dimmsPerNode() ||
        device >= geometry_.devicesPerRank())
        return byDevice_.size();
    return size_t{dimm} * geometry_.devicesPerRank() + device;
}

size_t
FaultSet::addFault(FaultRecord fault)
{
    const size_t index = faults_.size();
    for (const DevicePart &part : fault.parts) {
        const size_t slot = slotOf(part.dimm, part.device);
        std::vector<uint32_t> &list =
            slot < byDevice_.size() ? byDevice_[slot] : offGeometry_;
        if (list.empty() || list.back() != index)
            list.push_back(static_cast<uint32_t>(index));
    }
    faults_.push_back(std::move(fault));
    repaired_.push_back(false);
    return index;
}

void
FaultSet::setRepaired(size_t index, bool repaired)
{
    repaired_[index] = repaired;
}

void
FaultSet::clear()
{
    faults_.clear();
    repaired_.clear();
    for (std::vector<uint32_t> &list : byDevice_)
        list.clear();
    offGeometry_.clear();
}

void
FaultSet::scan(const std::vector<uint32_t> &indices,
               const DeviceCoord &coord, bool include_repaired,
               StuckBits &stuck) const
{
    for (const uint32_t index : indices) {
        const FaultRecord &fault = faults_[index];
        if (!fault.permanent())
            continue;
        if (!include_repaired && repaired_[index])
            continue;
        for (const auto &part : fault.parts) {
            if (part.dimm != coord.dimm || part.device != coord.device)
                continue;
            stuck.mask |= part.region.sliceMask(coord.bank, coord.row,
                                                coord.colBlock);
        }
    }
}

StuckBits
FaultSet::probe(const DeviceCoord &coord, bool include_repaired) const
{
    StuckBits stuck;
    const size_t slot = slotOf(coord.dimm, coord.device);
    if (slot < byDevice_.size())
        scan(byDevice_[slot], coord, include_repaired, stuck);
    scan(offGeometry_, coord, include_repaired, stuck);
    if (stuck.mask != 0)
        stuck.value = stuckValueFor(coord);
    return stuck;
}

FunctionalDram::FaultProbe
FaultSet::makeProbe() const
{
    return [this](const DeviceCoord &coord) { return probe(coord); };
}

} // namespace relaxfault
