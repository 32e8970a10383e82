#include "digest.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

struct Pin
{
    const char *workload;
    uint64_t seed;
    const char *digest;
};

/**
 * Digests at each workload's default seed, from the library as it stood
 * when the benchmark was defined. A change that moves one of these
 * changed simulated results, not just speed.
 */
constexpr Pin kPins[] = {
    {"lifetime_10x", 1206, "8aeffe4d7efbbcd0"},
    {"fleet_1x", 1206, "4807f220d00875bc"},
    {"perf_fig15", 1515, "58fb81e5556fa70c"},
    {"datapath_rw", 7, "bb2fb5f1fcf8ef54"},
};

const Pin *
findPin(const std::string &workload, uint64_t seed)
{
    for (const Pin &pin : kPins) {
        if (workload == pin.workload && seed == pin.seed)
            return &pin;
    }
    return nullptr;
}

} // namespace

Digest &
Digest::add(uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        state_ ^= (value >> (8 * i)) & 0xff;
        state_ *= 1099511628211ull;
    }
    return *this;
}

Digest &
Digest::add(double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return add(bits);
}

Digest &
Digest::add(const std::string &text)
{
    add(static_cast<uint64_t>(text.size()));
    for (const char c : text) {
        state_ ^= static_cast<unsigned char>(c);
        state_ *= 1099511628211ull;
    }
    return *this;
}

Digest &
Digest::add(const relaxfault::RunningStat &stat)
{
    return add(static_cast<uint64_t>(stat.count()))
        .add(stat.mean())
        .add(stat.variance())
        .add(stat.min())
        .add(stat.max());
}

Digest &
Digest::add(const relaxfault::LifetimeSummary &s)
{
    return add(s.faultyNodes)
        .add(s.multiDeviceFaultDimms)
        .add(s.dues)
        .add(s.sdcs)
        .add(s.replacements)
        .add(s.repairedFaults)
        .add(s.permanentFaults)
        .add(s.fullyRepairedNodes)
        .add(s.budgetExhausted)
        .add(s.degradedToRetirement)
        .add(s.degradedDues)
        .add(s.failStops);
}

Digest &
Digest::add(const relaxfault::PerfResult &result)
{
    add(static_cast<uint64_t>(result.cores.size()));
    for (const relaxfault::CoreResult &core : result.cores)
        add(core.workload).add(core.instructions).add(core.cycles);
    return add(result.llcHits)
        .add(result.llcMisses)
        .add(result.elapsedCycles)
        .add(result.dram.activates)
        .add(result.dram.reads)
        .add(result.dram.writes)
        .add(result.dram.cycles);
}

Digest &
Digest::add(const relaxfault::ControllerStats &s)
{
    return add(s.reads)
        .add(s.writes)
        .add(s.correctedReads)
        .add(s.uncorrectableReads)
        .add(s.remapMerges)
        .add(s.remapFills)
        .add(s.erasureDecodes)
        .add(s.bankFilterHits)
        .add(s.faultsReported)
        .add(s.faultsRepaired)
        .add(s.duplicateFaults)
        .add(s.budgetExhausted)
        .add(s.degradedToRetirement)
        .add(s.degradedDues)
        .add(s.failStops);
}

std::string
Digest::hex() const
{
    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(state_));
    return text;
}

bool
matchesPin(const std::string &workload, uint64_t seed,
           const std::string &digest, std::string *why)
{
    const Pin *pin = findPin(workload, seed);
    if (pin == nullptr || digest == pin->digest)
        return true;
    if (why != nullptr)
        *why = workload + " seed " + std::to_string(seed) + ": digest " +
               digest + " differs from pinned " + pin->digest;
    return false;
}

bool
hasPin(const std::string &workload, uint64_t seed)
{
    return findPin(workload, seed) != nullptr;
}

} // namespace perfbench
