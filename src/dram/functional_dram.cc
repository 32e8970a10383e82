#include "dram/functional_dram.h"

#include <bit>
#include <cstring>
#include <string>

#include "common/log.h"

namespace relaxfault {

FunctionalDram::FunctionalDram(const DramGeometry &geometry)
    : geometry_(geometry), lines_(storedLineBytes())
{
    if (geometry_.devicesPerRank() > kMaxDevices)
        fatal("FunctionalDram: at most " + std::to_string(kMaxDevices) +
              " devices per rank");
}

void
FunctionalDram::setFaultProbe(FaultProbe probe)
{
    probe_ = std::move(probe);
}

unsigned
FunctionalDram::storedLineBytes() const
{
    return geometry_.devicesPerRank() * geometry_.bytesPerDevicePerLine();
}

uint64_t
FunctionalDram::lineKey(const LineCoord &coord) const
{
    uint64_t key = coord.dimm(geometry_);
    key = key * geometry_.banksPerDevice + coord.bank;
    key = key * geometry_.rowsPerBank + coord.row;
    key = key * geometry_.colBlocksPerRow + coord.colBlock;
    return key;
}

void
FunctionalDram::writeLine(const LineCoord &coord, const uint8_t *bytes)
{
    lines_.store(lineKey(coord), bytes);
}

void
FunctionalDram::fetch(const LineCoord &coord, uint8_t *out) const
{
    const uint8_t *line = lines_.find(lineKey(coord));
    if (line == nullptr)
        std::memset(out, 0, storedLineBytes());
    else
        std::memcpy(out, line, storedLineBytes());
}

void
FunctionalDram::readLineRaw(const LineCoord &coord, uint8_t *out) const
{
    fetch(coord, out);
}

void
FunctionalDram::readLine(const LineCoord &coord, uint8_t *out) const
{
    fetch(coord, out);
    if (!probe_)
        return;

    StuckBits stuck[kMaxDevices];
    const unsigned slice_bytes = geometry_.bytesPerDevicePerLine();
    for (uint32_t devices = probe_(coord, stuck); devices != 0;
         devices &= devices - 1) {
        const unsigned device =
            static_cast<unsigned>(std::countr_zero(devices));
        uint32_t slice = 0;
        std::memcpy(&slice, out + device * slice_bytes, slice_bytes);
        slice = (slice & ~stuck[device].mask) |
                (stuck[device].value & stuck[device].mask);
        std::memcpy(out + device * slice_bytes, &slice, slice_bytes);
    }
}

} // namespace relaxfault
