/**
 * @file
 * Tests for the performance substrate: workload generators, the DRAM
 * channel timing model, and the multicore simulator's qualitative
 * behaviours (locking ways never helps, LULESH is the most sensitive,
 * weighted speedup is sane).
 */

#include <gtest/gtest.h>

#include "common/stats.h"
#include "dram/power.h"
#include "perf/dram_channel.h"
#include "perf/perf_sim.h"
#include "perf/workload.h"

namespace relaxfault {
namespace {

TEST(Workload, AllPresetsExist)
{
    for (const auto &name : WorkloadParams::multiThreadedNames())
        EXPECT_EQ(WorkloadParams::preset(name).name, name);
    for (const auto &name : WorkloadParams::specMemMix())
        EXPECT_FALSE(WorkloadParams::preset(name).name.empty());
    for (const auto &name : WorkloadParams::specCompMix())
        EXPECT_FALSE(WorkloadParams::preset(name).name.empty());
}

TEST(Workload, AccessesStayInRegion)
{
    const WorkloadParams params = WorkloadParams::preset("LULESH");
    const uint64_t base = 4ull << 30;
    SyntheticWorkload workload(params, base, 1);
    const uint64_t span = params.footprintBytes;
    for (int i = 0; i < 50000; ++i) {
        const auto access = workload.next();
        ASSERT_GE(access.pa, base);
        ASSERT_LT(access.pa, base + span + params.hotSetBytes +
                                 params.hotTailBytes);
        ASSERT_EQ(access.pa % 64, 0u);
    }
}

TEST(Workload, GapMatchesMemOpFraction)
{
    const WorkloadParams params = WorkloadParams::preset("CG");
    SyntheticWorkload workload(params, 0, 2);
    RunningStat gaps;
    for (int i = 0; i < 50000; ++i)
        gaps.add(workload.next().gapInstructions);
    // The generator floors the exponential draw, which shifts the mean
    // down by ~0.5 instructions.
    const double expected = (1.0 - params.memOpFraction) /
                            params.memOpFraction;
    EXPECT_NEAR(gaps.mean(), expected - 0.5, 0.25);
}

TEST(Workload, WriteFractionRespected)
{
    const WorkloadParams params = WorkloadParams::preset("lbm");
    SyntheticWorkload workload(params, 0, 3);
    unsigned writes = 0;
    const int trials = 50000;
    for (int i = 0; i < trials; ++i)
        writes += workload.next().write;
    EXPECT_NEAR(static_cast<double>(writes) / trials,
                params.writeFraction, 0.02);
}

TEST(Workload, BurstsProduceSequentialRuns)
{
    WorkloadParams params = WorkloadParams::preset("libquantum");
    SyntheticWorkload workload(params, 0, 4);
    unsigned sequential = 0;
    uint64_t last = ~0ull;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        const auto access = workload.next();
        if (access.pa == last + 64)
            ++sequential;
        last = access.pa;
    }
    // Mean burst 16 lines -> ~94% of accesses continue a run.
    EXPECT_GT(static_cast<double>(sequential) / trials, 0.6);
}

TEST(DramChannel, RowHitFasterThanConflict)
{
    const DramGeometry geometry = PerfConfig::dramGeometry();
    const DramTiming timing;
    DramChannelTiming channel(geometry, timing, 5);
    const uint64_t first = channel.access(0, 0, 100, false, 1000);
    const uint64_t hit = channel.access(0, 0, 100, false, first);
    const uint64_t conflict = channel.access(0, 0, 999, false, hit);
    EXPECT_EQ(hit - first, uint64_t{timing.rowHitLatency()} * 5);
    EXPECT_GT(conflict - hit, hit - first);
    EXPECT_EQ(channel.counts().activates, 2u);
    EXPECT_EQ(channel.counts().reads, 3u);
}

TEST(DramChannel, FrFcfsBatchingKeepsSecondRowWarm)
{
    const DramGeometry geometry = PerfConfig::dramGeometry();
    const DramTiming timing;
    DramChannelTiming channel(geometry, timing, 5);
    uint64_t t = channel.access(0, 0, 100, false, 0);
    t = channel.access(0, 0, 200, false, t);  // Conflict opens row 200.
    const uint64_t before = t;
    t = channel.access(0, 0, 100, false, t);  // Batching credit: hit.
    EXPECT_EQ(t - before, uint64_t{timing.rowHitLatency()} * 5);
}

TEST(DramChannel, BanksIndependent)
{
    const DramGeometry geometry = PerfConfig::dramGeometry();
    DramChannelTiming channel(geometry, DramTiming{}, 5);
    const uint64_t a = channel.access(0, 0, 100, false, 0);
    // A different bank is not blocked by bank 0's busy time (only the
    // shared bus serializes the bursts).
    const uint64_t b = channel.access(0, 1, 100, false, 0);
    EXPECT_LE(b, a + DramTiming{}.tBURST * 5);
}

TEST(DramChannel, WritesCounted)
{
    const DramGeometry geometry = PerfConfig::dramGeometry();
    DramChannelTiming channel(geometry, DramTiming{}, 5);
    channel.access(0, 0, 1, true, 0);
    channel.finalize(1000);
    EXPECT_EQ(channel.counts().writes, 1u);
    EXPECT_EQ(channel.counts().cycles, 200u);  // 1000 / ratio 5.
}

TEST(RepairConfigLabels, Stable)
{
    EXPECT_EQ(LlcRepairConfig::none().label(), "no-repair");
    EXPECT_EQ(LlcRepairConfig::ways(4).label(), "4-way");
    EXPECT_EQ(LlcRepairConfig::randomBytes(100 * 1024, 1).label(),
              "100KiB");
}

class PerfSimTest : public ::testing::Test
{
  protected:
    PerfSimTest()
    {
        config_.instructionsPerCore = 60000;
        config_.warmupAccessesPerCore = 5000;
    }

    PerfConfig config_;
};

TEST_F(PerfSimTest, RunsAndProducesPositiveIpc)
{
    const PerfSimulator simulator(config_);
    const std::vector<WorkloadParams> workloads(
        4, WorkloadParams::preset("CG"));
    const PerfResult result =
        simulator.run(workloads, LlcRepairConfig::none(), 11);
    ASSERT_EQ(result.cores.size(), 4u);
    for (const auto &core : result.cores) {
        EXPECT_GE(core.instructions, config_.instructionsPerCore);
        EXPECT_GT(core.ipc(), 0.0);
        EXPECT_LT(core.ipc(), 4.0);  // Bounded by issue width.
    }
    EXPECT_GT(result.dram.reads, 0u);
    EXPECT_GT(result.llcMissRate(), 0.0);
    EXPECT_LT(result.llcMissRate(), 1.0);
}

TEST_F(PerfSimTest, DeterministicForSameSeed)
{
    const PerfSimulator simulator(config_);
    const std::vector<WorkloadParams> workloads(
        2, WorkloadParams::preset("SP"));
    const PerfResult a =
        simulator.run(workloads, LlcRepairConfig::none(), 3);
    const PerfResult b =
        simulator.run(workloads, LlcRepairConfig::none(), 3);
    EXPECT_EQ(a.cores[0].cycles, b.cores[0].cycles);
    EXPECT_EQ(a.dram.reads, b.dram.reads);
}

TEST_F(PerfSimTest, LockingWaysNeverHelpsMuch)
{
    const PerfSimulator simulator(config_);
    const std::vector<WorkloadParams> workloads(
        8, WorkloadParams::preset("LULESH"));
    const PerfResult full =
        simulator.run(workloads, LlcRepairConfig::none(), 5);
    const PerfResult locked =
        simulator.run(workloads, LlcRepairConfig::ways(8), 5);
    double full_ipc = 0.0;
    double locked_ipc = 0.0;
    for (unsigned i = 0; i < 8; ++i) {
        full_ipc += full.cores[i].ipc();
        locked_ipc += locked.cores[i].ipc();
    }
    EXPECT_LT(locked_ipc, full_ipc * 1.02);
    EXPECT_GE(locked.llcMissRate() + 0.02, full.llcMissRate());
}

TEST_F(PerfSimTest, HundredKiBIsNoise)
{
    const PerfSimulator simulator(config_);
    const std::vector<WorkloadParams> workloads(
        8, WorkloadParams::preset("milc"));
    const PerfResult full =
        simulator.run(workloads, LlcRepairConfig::none(), 5);
    const PerfResult small = simulator.run(
        workloads, LlcRepairConfig::randomBytes(100 * 1024, 5), 5);
    double full_ipc = 0.0;
    double small_ipc = 0.0;
    for (unsigned i = 0; i < 8; ++i) {
        full_ipc += full.cores[i].ipc();
        small_ipc += small.cores[i].ipc();
    }
    EXPECT_NEAR(small_ipc / full_ipc, 1.0, 0.05);
}

TEST_F(PerfSimTest, WeightedSpeedupSaneBounds)
{
    const PerfSimulator simulator(config_);
    const std::vector<WorkloadParams> workloads(
        4, WorkloadParams::preset("bzip2"));
    std::vector<double> alone;
    for (const auto &w : workloads)
        alone.push_back(simulator.aloneIpc(w, 21));
    const PerfResult shared =
        simulator.run(workloads, LlcRepairConfig::none(), 21);
    const double ws = weightedSpeedup(shared, alone);
    EXPECT_GT(ws, 0.5);
    EXPECT_LE(ws, 4.6);  // <= N with a little measurement slack.
}

/**
 * Golden pin of the whole simulator: every PerfResult total for CG,
 * LULESH and the SPEC MEM mix under each LLC repair shape, including the
 * randomly placed 100 KiB budget that the benchmark slice never runs.
 * The values were recorded from the age-stamped `Way`-array cache model
 * the packed model replaced, so any change to replacement, writeback or
 * stream order shows here first.
 */
struct PerfGolden
{
    const char *group;
    LlcRepairConfig repair;
    uint64_t llcHits;
    uint64_t llcMisses;
    uint64_t elapsedCycles;
    uint64_t activates;
    uint64_t reads;
    uint64_t writes;
    uint64_t coreCycles;    ///< Sum over cores.
    uint64_t instructions;  ///< Sum over cores.
};

TEST(PerfSimGolden, ResultsMatchTheRecordedValues)
{
    PerfConfig config;
    config.instructionsPerCore = 50000;
    config.warmupAccessesPerCore = 30000;
    const PerfSimulator simulator(config);

    const LlcRepairConfig none = LlcRepairConfig::none();
    const LlcRepairConfig random = LlcRepairConfig::randomBytes(100 * 1024, 3);
    const LlcRepairConfig way1 = LlcRepairConfig::ways(1);
    const LlcRepairConfig way4 = LlcRepairConfig::ways(4);
    const PerfGolden golden[] = {
        {"CG", none,
         22204u, 36694u, 2619897u, 30855u,
         103413u, 135u, 5763501u, 400010u},
        {"CG", random,
         22100u, 36627u, 2625118u, 31085u,
         103349u, 165u, 5858412u, 400010u},
        {"CG", way1,
         22014u, 36443u, 2615309u, 30921u,
         103164u, 264u, 5820718u, 400010u},
        {"CG", way4,
         21678u, 36091u, 2727228u, 33416u,
         102932u, 1528u, 6386268u, 400010u},
        {"LULESH", none,
         74957u, 10009u, 1888477u, 20698u,
         60372u, 7u, 3369052u, 400008u},
        {"LULESH", random,
         74940u, 10009u, 1888321u, 20699u,
         60372u, 8u, 3368582u, 400008u},
        {"LULESH", way1,
         74971u, 9999u, 1890012u, 20745u,
         60362u, 21u, 3378548u, 400008u},
        {"LULESH", way4,
         74993u, 10026u, 1897641u, 21284u,
         60443u, 563u, 3409685u, 400008u},
        {"MEM", none,
         169380u, 495834u, 17868578u, 315937u,
         636898u, 135379u, 25785841u, 400016u},
        {"MEM", random,
         169275u, 495419u, 17971934u, 317367u,
         636494u, 135707u, 26057249u, 400016u},
        {"MEM", way1,
         169740u, 497379u, 18134344u, 320227u,
         638496u, 138263u, 26318039u, 400016u},
        {"MEM", way4,
         168248u, 501330u, 18590793u, 330723u,
         642715u, 149367u, 27300806u, 400016u},
    };

    for (const PerfGolden &row : golden) {
        SCOPED_TRACE(std::string(row.group) + "/" + row.repair.label());
        std::vector<WorkloadParams> workloads;
        if (std::string(row.group) == "MEM") {
            for (const std::string &name : WorkloadParams::specMemMix())
                workloads.push_back(WorkloadParams::preset(name));
        } else {
            workloads.assign(config.cores,
                             WorkloadParams::preset(row.group));
        }
        const PerfResult result = simulator.run(workloads, row.repair, 17);
        uint64_t core_cycles = 0;
        uint64_t instructions = 0;
        for (const CoreResult &core : result.cores) {
            core_cycles += core.cycles;
            instructions += core.instructions;
        }
        EXPECT_EQ(result.llcHits, row.llcHits);
        EXPECT_EQ(result.llcMisses, row.llcMisses);
        EXPECT_EQ(result.elapsedCycles, row.elapsedCycles);
        EXPECT_EQ(result.dram.activates, row.activates);
        EXPECT_EQ(result.dram.reads, row.reads);
        EXPECT_EQ(result.dram.writes, row.writes);
        EXPECT_EQ(core_cycles, row.coreCycles);
        EXPECT_EQ(instructions, row.instructions);
    }
}

TEST(PerfSimDeathTest, CacheWhoseTagsExceed32BitsIsRefused)
{
    // One-byte lines in a one-line cache leave every address bit to the
    // tag, more than the 32-bit tag row holds for this address width.
    PerfConfig config;
    config.l1 = CacheGeometry{1, 1, 1};
    ASSERT_GT(PerfConfig::dramGeometry().paBits(),
              CacheModel::addressBitsLimit(config.l1));
    const PerfSimulator simulator(config);
    EXPECT_DEATH(simulator.run({WorkloadParams::preset("CG")},
                               LlcRepairConfig::none(), 1),
                 "tags wider than 32 bits");
}

TEST(PowerIntegration, MoreTrafficMorePower)
{
    PerfConfig config;
    config.instructionsPerCore = 40000;
    config.warmupAccessesPerCore = 2000;
    const PerfSimulator simulator(config);
    const DramPowerModel model(DramPowerParams{}, config.dramTiming,
                               PerfConfig::dramGeometry().devicesPerRank());
    const std::vector<WorkloadParams> heavy(
        8, WorkloadParams::preset("lbm"));
    const std::vector<WorkloadParams> light(
        8, WorkloadParams::preset("sjeng"));
    const PerfResult r_heavy =
        simulator.run(heavy, LlcRepairConfig::none(), 9);
    const PerfResult r_light =
        simulator.run(light, LlcRepairConfig::none(), 9);
    // Compare per-instruction energy (power alone depends on elapsed
    // time, which the memory-bound workload stretches).
    uint64_t heavy_instr = 0;
    uint64_t light_instr = 0;
    for (unsigned i = 0; i < 8; ++i) {
        heavy_instr += r_heavy.cores[i].instructions;
        light_instr += r_light.cores[i].instructions;
    }
    EXPECT_GT(model.dynamicEnergyNj(r_heavy.dram) / heavy_instr,
              model.dynamicEnergyNj(r_light.dram) / light_instr);
}

} // namespace
} // namespace relaxfault
