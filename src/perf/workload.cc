#include "perf/workload.h"

#include <cmath>

#include "common/log.h"

namespace relaxfault {

namespace {

constexpr uint64_t KiB = 1024;
constexpr uint64_t MiB = 1024 * 1024;

WorkloadParams
make(const std::string &name, double mem_op, double write_frac,
     uint64_t footprint, uint64_t hot, double hot_frac, double stream_frac,
     double mlp, double burst)
{
    WorkloadParams params;
    params.name = name;
    params.memOpFraction = mem_op;
    params.writeFraction = write_frac;
    params.footprintBytes = footprint;
    params.hotSetBytes = hot;
    params.hotFraction = hot_frac;
    params.streamFraction = stream_frac;
    params.mlpFactor = mlp;
    params.burstMeanLines = burst;
    return params;
}

} // namespace

WorkloadParams
WorkloadParams::preset(const std::string &name)
{
    // NPB class C / LULESH profiles: per-thread hot set vs the ~1MiB of
    // shared LLC each of the 8 cores can claim. LULESH is the one whose
    // hot set only just fits, making it the only benchmark perceptibly
    // sensitive to locked ways (paper Sec. 5.2).
    if (name == "CG")
        return make(name, 0.26, 0.15, 300 * MiB, 96 * KiB, 0.72, 0.55,
                    5.0, 10.0);
    if (name == "DC")
        return make(name, 0.26, 0.40, 1024 * MiB, 192 * KiB, 0.86, 0.35,
                    3.5, 8.0);
    if (name == "LU")
        return make(name, 0.25, 0.25, 120 * MiB, 96 * KiB, 0.84, 0.80,
                    4.5, 16.0);
    if (name == "SP")
        return make(name, 0.26, 0.30, 160 * MiB, 112 * KiB, 0.82, 0.85,
                    4.5, 16.0);
    if (name == "UA")
        return make(name, 0.30, 0.25, 200 * MiB, 112 * KiB, 0.78, 0.30,
                    2.0, 4.0);
    if (name == "LULESH") {
        // Core tier fits; the tail tier straddles the LLC share, so a
        // capacity loss shows up as a smooth throughput loss (Fig. 15).
        WorkloadParams params =
            make(name, 0.30, 0.35, 512 * MiB, 256 * KiB, 0.93, 0.50,
                 3.0, 8.0);
        params.hotTailBytes = 1024 * KiB;
        params.hotTailProb = 0.04;
        return params;
    }

    // SPEC CPU2006 profiles.
    if (name == "mcf")
        return make(name, 0.38, 0.15, 1700 * MiB, 16 * MiB, 0.55, 0.10,
                    1.5, 2.0);
    if (name == "milc")
        return make(name, 0.33, 0.25, 600 * MiB, 64 * KiB, 0.50, 0.80,
                    3.0, 10.0);
    if (name == "soplex")
        return make(name, 0.30, 0.20, 250 * MiB, 96 * KiB, 0.75, 0.55,
                    2.5, 6.0);
    if (name == "libquantum")
        return make(name, 0.30, 0.25, 96 * MiB, 32 * KiB, 0.30, 0.95,
                    4.0, 16.0);
    if (name == "lbm")
        return make(name, 0.34, 0.45, 400 * MiB, 64 * KiB, 0.35, 0.90,
                    4.0, 16.0);
    if (name == "leslie3d")
        return make(name, 0.30, 0.30, 120 * MiB, 96 * KiB, 0.65, 0.75,
                    3.0, 10.0);
    if (name == "omnetpp")
        return make(name, 0.32, 0.25, 170 * MiB, 112 * KiB, 0.72, 0.15,
                    1.5, 2.0);
    if (name == "bzip2")
        return make(name, 0.22, 0.25, 60 * MiB, 96 * KiB, 0.92, 0.40,
                    2.0, 6.0);
    if (name == "sjeng")
        return make(name, 0.15, 0.15, 50 * MiB, 64 * KiB, 0.95, 0.20,
                    1.5, 3.0);

    fatal("unknown workload preset: " + name);
}

std::vector<std::string>
WorkloadParams::multiThreadedNames()
{
    return {"CG", "DC", "LU", "SP", "UA", "LULESH"};
}

std::vector<std::string>
WorkloadParams::specMemMix()
{
    return {"mcf", "milc", "soplex", "libquantum", "lbm", "leslie3d",
            "omnetpp", "mcf"};
}

std::vector<std::string>
WorkloadParams::specCompMix()
{
    return {"mcf", "milc", "soplex", "libquantum", "lbm", "bzip2",
            "sjeng", "bzip2"};
}

SyntheticWorkload::SyntheticWorkload(const WorkloadParams &params,
                                     uint64_t base_pa, uint64_t seed)
    : params_(params), basePa_(base_pa & ~uint64_t{63}), rng_(seed),
      // Compute gap: geometric with mean (1 - m) / m non-memory
      // instructions per memory operation.
      meanGap_((1.0 - params.memOpFraction) / params.memOpFraction),
      hotLines_(params.hotSetBytes / 64),
      hotTailLines_(params.hotTailBytes / 64),
      footprintLines_(params.footprintBytes / 64)
{
}

MemAccess
SyntheticWorkload::next()
{
    MemAccess access;
    access.write = rng_.bernoulli(params_.writeFraction);

    const double u = rng_.uniform();
    access.gapInstructions = static_cast<unsigned>(
        -meanGap_ * std::log(1.0 - u));

    if (burstRemaining_ > 0) {
        // Continue the spatial burst: the next consecutive line.
        --burstRemaining_;
        if (burstIsStream_) {
            streamOffset_ = wrapLine(streamOffset_ + 1);
            currentLine_ = streamOffset_;
        } else {
            currentLine_ = wrapLine(currentLine_ + 1);
        }
    } else {
        // Jump to a new location and start a fresh burst.
        burstIsStream_ = false;
        if (rng_.bernoulli(params_.hotFraction)) {
            if (params_.hotTailBytes > 0 &&
                rng_.bernoulli(params_.hotTailProb)) {
                // Tail tier lives directly above the core tier.
                currentLine_ = hotLines_ + rng_.uniformInt(hotTailLines_);
            } else {
                currentLine_ = rng_.uniformInt(hotLines_);
            }
        } else if (rng_.bernoulli(params_.streamFraction)) {
            burstIsStream_ = true;
            streamOffset_ = wrapLine(streamOffset_ + 1);
            currentLine_ = streamOffset_;
        } else {
            currentLine_ = rng_.uniformInt(footprintLines_);
        }
        if (params_.burstMeanLines > 1.0) {
            const double u = rng_.uniform();
            burstRemaining_ = static_cast<unsigned>(
                -(params_.burstMeanLines - 1.0) * std::log(1.0 - u));
        }
    }
    access.pa = basePa_ + currentLine_ * 64;
    return access;
}

} // namespace relaxfault
