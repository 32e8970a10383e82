/**
 * @file
 * Bit-exact digests of simulated outputs, and the pins they are checked
 * against.
 *
 * A speed-only change must leave every simulated statistic identical, so
 * each workload folds its outputs (doubles by bit pattern) into a 64-bit
 * FNV-1a digest. The traced replay must reproduce the untraced digest,
 * and at a workload's default seed the digest must equal the one pinned
 * in `kPins` below.
 */

#ifndef PERFBENCH_DIGEST_H
#define PERFBENCH_DIGEST_H

#include <cstdint>
#include <string>

#include "core/relaxfault_controller.h"
#include "perf/perf_sim.h"
#include "sim/lifetime.h"

namespace perfbench {

class Digest
{
  public:
    Digest &add(uint64_t value);
    Digest &add(double value);   ///< By bit pattern.
    Digest &add(const std::string &text);

    Digest &add(const relaxfault::RunningStat &stat);
    /** All 12 statistics: count, mean, variance, min, max of each. */
    Digest &add(const relaxfault::LifetimeSummary &summary);
    /** Per-core cycles/instructions, LLC hits/misses, DRAM op counts. */
    Digest &add(const relaxfault::PerfResult &result);
    Digest &add(const relaxfault::ControllerStats &stats);

    uint64_t value() const { return state_; }
    std::string hex() const;

  private:
    uint64_t state_ = 14695981039346656037ull;
};

/**
 * Check @p digest against the pin for (workload, seed). Returns true
 * when it matches or when no pin exists for that pair; on a mismatch
 * fills @p why.
 */
bool matchesPin(const std::string &workload, uint64_t seed,
                const std::string &digest, std::string *why);

/** Whether a pin exists for (workload, seed). */
bool hasPin(const std::string &workload, uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_DIGEST_H
