/**
 * @file
 * Synthetic workload models standing in for the paper's benchmarks
 * (Table 4: NPB CG/DC/LU/SP/UA, LULESH, and SPEC CPU2006 mixes).
 *
 * Substitution note (see DESIGN.md): the paper drives MacSim with
 * SimPoints of the real benchmarks; we generate per-core address streams
 * whose footprint, hot-set size, streaming behaviour, and memory
 * intensity are set per benchmark. The performance claim under test is
 * the LLC *capacity sensitivity* of each workload when repair locks ways
 * — which these parameters control directly — not absolute IPC.
 */

#ifndef RELAXFAULT_PERF_WORKLOAD_H
#define RELAXFAULT_PERF_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "perf/access_stream.h"

namespace relaxfault {

/** Locality/intensity profile of one benchmark. */
struct WorkloadParams
{
    std::string name;
    /** Memory operations per instruction. */
    double memOpFraction = 0.3;
    /** Fraction of memory operations that are writes. */
    double writeFraction = 0.3;
    /** Total data footprint streamed/accessed by one thread. */
    uint64_t footprintBytes = 256ull << 20;
    /** Cache-resident hot set; its fit in the LLC drives sensitivity. */
    uint64_t hotSetBytes = 512ull << 10;
    /** P(access targets the hot set). */
    double hotFraction = 0.85;
    /**
     * Optional second hot tier with a footprint near/above the LLC
     * share: its hit rate degrades *gradually* with usable capacity,
     * modelling workloads (LULESH) whose working set straddles the LLC.
     */
    uint64_t hotTailBytes = 0;
    /** P(a hot access goes to the tail tier instead of the core). */
    double hotTailProb = 0.0;
    /** P(non-hot access is sequential streaming, else random). */
    double streamFraction = 0.7;
    /** Effective memory-level parallelism (latency-hiding divisor). */
    double mlpFactor = 3.0;
    /**
     * Mean consecutive lines touched after each jump (spatial
     * locality). Drives the DRAM row-buffer hit rate: consecutive lines
     * rotate channels but stay within an open row.
     */
    double burstMeanLines = 8.0;

    /** Named preset (CG, DC, LU, SP, UA, LULESH, SPEC app names). */
    static WorkloadParams preset(const std::string &name);

    /** NPB + LULESH multi-threaded workload names. */
    static std::vector<std::string> multiThreadedNames();

    /** The paper's SPEC MEM mix (memory-intensive only). */
    static std::vector<std::string> specMemMix();

    /** The paper's SPEC COMP mix (memory + compute intensive). */
    static std::vector<std::string> specCompMix();
};

/** Per-core address-stream generator. */
class SyntheticWorkload : public AccessStream
{
  public:
    /** Generated memory operation (historic alias). */
    using Access = MemAccess;

    /**
     * @param params Benchmark profile.
     * @param base_pa Start of this core's (line-aligned) data region.
     * @param seed Deterministic stream seed.
     */
    SyntheticWorkload(const WorkloadParams &params, uint64_t base_pa,
                      uint64_t seed);

    /** Generate the next memory operation. */
    MemAccess next() override;

    double mlpFactor() const override { return params_.mlpFactor; }
    std::string name() const override { return params_.name; }

    const WorkloadParams &params() const { return params_; }

  private:
    /** Next line of a sequential run, wrapped into the footprint. */
    uint64_t wrapLine(uint64_t line) const
    {
        return line < footprintLines_ ? line : line % footprintLines_;
    }

    WorkloadParams params_;
    uint64_t basePa_;
    Rng rng_;
    // Derived from params_ once; next() draws against them.
    double meanGap_;          ///< Mean compute instructions per access.
    uint64_t hotLines_;
    uint64_t hotTailLines_;
    uint64_t footprintLines_;
    uint64_t streamOffset_ = 0;
    uint64_t currentLine_ = 0;
    unsigned burstRemaining_ = 0;
    bool burstIsStream_ = false;
};

} // namespace relaxfault

#endif // RELAXFAULT_PERF_WORKLOAD_H
