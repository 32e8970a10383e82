#include "repair/ppr_repair.h"

#include <vector>

namespace relaxfault {

PprRepair::PprRepair(const DramGeometry &dram, unsigned bank_groups,
                     unsigned spares_per_group)
    : dram_(dram), bankGroups_(bank_groups),
      banksPerGroup_(dram.banksPerDevice / bank_groups),
      sparesPerGroup_(spares_per_group)
{
}

uint64_t
PprRepair::rowKey(unsigned dimm, unsigned device, unsigned bank,
                  uint32_t row) const
{
    uint64_t key = dimm;
    key = key * dram_.devicesPerRank() + device;
    key = key * dram_.banksPerDevice + bank;
    key = key * dram_.rowsPerBank + row;
    return key;
}

uint64_t
PprRepair::groupKey(unsigned dimm, unsigned device, unsigned group) const
{
    uint64_t key = dimm;
    key = key * dram_.devicesPerRank() + device;
    key = key * bankGroups_ + group;
    return key;
}

bool
PprRepair::tryRepair(const FaultRecord &fault)
{
    // Gather the distinct rows the fault needs, failing at the first
    // bank group that runs out of spares; nothing is committed before
    // every row has a spare.
    std::vector<std::pair<uint64_t, uint64_t>> new_rows;  // (rowKey, gKey)

    for (const auto &part : fault.parts) {
        if (part.region.massive())
            return false;
        for (const auto &cluster : part.region.clusters()) {
            for (unsigned bank = 0; bank < dram_.banksPerDevice; ++bank) {
                if (!(cluster.bankMask & (1u << bank)))
                    continue;
                const unsigned group = bank / banksPerGroup_;
                const uint64_t gkey = groupKey(part.dimm, part.device, group);
                const auto it = groupUse_.find(gkey);
                const unsigned used = it == groupUse_.end() ? 0 : it->second;
                for (const auto row : cluster.rows.rows) {
                    const uint64_t rkey =
                        rowKey(part.dimm, part.device, bank, row);
                    if (repairedRows_.count(rkey))
                        continue;
                    unsigned need = 1;
                    bool pending = false;
                    for (const auto &[existing, existing_group] : new_rows) {
                        pending = pending || existing == rkey;
                        need += existing_group == gkey;
                    }
                    if (pending)
                        continue;
                    if (used + need > sparesPerGroup_)
                        return false;
                    new_rows.emplace_back(rkey, gkey);
                }
            }
        }
    }

    for (const auto &[rkey, gkey] : new_rows) {
        repairedRows_.insert(rkey);
        ++groupUse_[gkey];
        ++sparesUsed_;
    }
    return true;
}

void
PprRepair::reset()
{
    groupUse_.clear();
    repairedRows_.clear();
    sparesUsed_ = 0;
}

bool
PprRepair::rowRepaired(unsigned dimm, unsigned device, unsigned bank,
                       uint32_t row) const
{
    return repairedRows_.count(rowKey(dimm, device, bank, row)) != 0;
}

} // namespace relaxfault
