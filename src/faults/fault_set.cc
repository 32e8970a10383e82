#include "faults/fault_set.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/log.h"

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
    : geometry_(geometry), byDevice_(geometry.devicesPerNode()),
      faultyDevices_(size_t{geometry.dimmsPerNode()} *
                     geometry.banksPerDevice)
{
    if (geometry_.devicesPerRank() > FunctionalDram::kMaxDevices ||
        geometry_.banksPerDevice > 32)
        fatal("FaultSet: at most " +
              std::to_string(FunctionalDram::kMaxDevices) +
              " devices per rank and 32 banks per device");
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
        if (!fault.permanent() || slot == byDevice_.size())
            continue;
        for (uint32_t banks = part.region.bankMask() &
                              maskBits(geometry_.banksPerDevice);
             banks != 0; banks &= banks - 1)
            faultyDevices_[size_t{part.dimm} * geometry_.banksPerDevice +
                           static_cast<unsigned>(std::countr_zero(banks))] |=
                1u << part.device;
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
    std::fill(faultyDevices_.begin(), faultyDevices_.end(), 0);
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

uint32_t
FaultSet::probeLine(const LineCoord &coord, bool include_repaired,
                    StuckBits *stuck) const
{
    DeviceCoord device_coord;
    device_coord.dimm = coord.dimm(geometry_);
    device_coord.bank = coord.bank;
    device_coord.row = coord.row;
    device_coord.colBlock = coord.colBlock;
    // Off-geometry lines (never produced by an address map) take the
    // per-device walk: only there can off-geometry parts match.
    uint32_t candidates =
        static_cast<uint32_t>(maskBits(geometry_.devicesPerRank()));
    if (device_coord.dimm < geometry_.dimmsPerNode() &&
        coord.bank < geometry_.banksPerDevice)
        candidates = faultyDevices_[size_t{device_coord.dimm} *
                                        geometry_.banksPerDevice +
                                    coord.bank];
    uint32_t stuck_devices = 0;
    for (; candidates != 0; candidates &= candidates - 1) {
        device_coord.device =
            static_cast<unsigned>(std::countr_zero(candidates));
        stuck[device_coord.device] = probe(device_coord, include_repaired);
        if (stuck[device_coord.device].mask != 0)
            stuck_devices |= 1u << device_coord.device;
    }
    return stuck_devices;
}

FunctionalDram::FaultProbe
FaultSet::makeProbe() const
{
    return [this](const LineCoord &coord, StuckBits *stuck) {
        return probeLine(coord, true, stuck);
    };
}

} // namespace relaxfault
