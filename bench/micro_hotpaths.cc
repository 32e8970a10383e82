/**
 * @file
 * google-benchmark microbenchmarks of the hardware-datapath hot paths:
 * the RelaxFault address map, the normal DRAM address map, the faulty-
 * bank-table + tag test (the per-miss filter), the repair-line tracker's
 * transactional add, the chipkill codecs, and the coalescer merge. These
 * bound the logic the paper argues is cheap enough to hide under a DRAM
 * access. Further rows time the lifetime simulator's own hot spots:
 * FreeFault repairs rejected mid-walk and accepted, an accepted
 * RelaxFault bank fault, and the sparse fault-extent row draws; and the
 * performance simulator's LLC model, hit and dirty-evicting miss.
 *
 * The chipkill/histogram benches run at the active SIMD dispatch level;
 * pin with `RELAXFAULT_SIMD=scalar|sse2|avx2` to A/B the kernels. The
 * `...Scalar` variants always run the reference path, so one run of one
 * binary shows before/after. Unlike the figure benches this main wraps
 * google-benchmark's, so only `--json[=PATH]` (schema
 * `relaxfault.bench.v1`, default BENCH_micro.json) is handled here and
 * everything else is google-benchmark's flag surface. Each JSON row has
 * the wall-clock `ns_per_op` and the thread-CPU `cpu_ns_per_op`; the
 * latter does not count time the thread spent descheduled.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cache/cache_geometry.h"
#include "cache/cache_model.h"
#include "common/failpoint.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/relaxfault_controller.h"
#include "dram/address_map.h"
#include "ecc/chipkill.h"
#include "faults/fault_geometry.h"
#include "repair/freefault_repair.h"
#include "repair/line_tracker.h"
#include "repair/relaxfault_map.h"
#include "repair/relaxfault_repair.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/run_record.h"
#include "telemetry/stats_plane.h"
#include "tracing/tracer.h"

namespace {

using namespace relaxfault;

const DramGeometry kGeometry;
const CacheGeometry kLlc{8 * 1024 * 1024, 16, 64};

/**
 * One decode row and one encode row per registered scheme. The default
 * geometry's address space and row count are powers of two, so the
 * loops step with a mask, not a 64-bit modulo.
 */
void
BM_AddressMapDecode(benchmark::State &state, const char *scheme)
{
    const DramAddressMap map = makeAddressMap(scheme, kGeometry);
    const uint64_t mask = kGeometry.nodeBytes() - 1;
    Rng rng(1);
    uint64_t pa = rng.next() & mask;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.decode(pa));
        pa = (pa + 4097 * 64) & mask;
    }
}
BENCHMARK_CAPTURE(BM_AddressMapDecode, fig7a, "fig7a");
BENCHMARK_CAPTURE(BM_AddressMapDecode, fig7a_nohash, "fig7a_nohash");
BENCHMARK_CAPTURE(BM_AddressMapDecode, intel_ivy, "intel_ivy");
BENCHMARK_CAPTURE(BM_AddressMapDecode, intel_haswell, "intel_haswell");
BENCHMARK_CAPTURE(BM_AddressMapDecode, amd_zen, "amd_zen");

void
BM_AddressMapEncode(benchmark::State &state, const char *scheme)
{
    const DramAddressMap map = makeAddressMap(scheme, kGeometry);
    const unsigned row_mask = kGeometry.rowsPerBank - 1;
    LineCoord coord{1, 0, 3, 4242, 17};
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.encode(coord));
        coord.row = (coord.row + 97) & row_mask;
    }
}
BENCHMARK_CAPTURE(BM_AddressMapEncode, fig7a, "fig7a");
BENCHMARK_CAPTURE(BM_AddressMapEncode, fig7a_nohash, "fig7a_nohash");
BENCHMARK_CAPTURE(BM_AddressMapEncode, intel_ivy, "intel_ivy");
BENCHMARK_CAPTURE(BM_AddressMapEncode, intel_haswell, "intel_haswell");
BENCHMARK_CAPTURE(BM_AddressMapEncode, amd_zen, "amd_zen");

void
BM_RelaxFaultMapLocate(benchmark::State &state)
{
    const RelaxFaultMap map(kGeometry, kLlc, true);
    RemapUnit unit{3, 7, 2, 12345, 5};
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.locate(unit));
        unit.row = (unit.row + 97) & 0xffff;
    }
}
BENCHMARK(BM_RelaxFaultMapLocate);

void
BM_FaultyBankFilter(benchmark::State &state)
{
    // The per-LLC-miss test: faulty-bank table lookup + (on hit) the
    // repair-tag probe for one device.
    RelaxFaultRepair repair(kGeometry, kLlc, RepairBudget{4, 32768}, true);
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    RegionCluster cluster;
    cluster.bankMask = 1;
    cluster.rows = RowSet::of({100});
    cluster.cols = ColSet::allCols();
    fault.parts.push_back({0, 3, FaultRegion({cluster})});
    repair.tryRepair(fault);

    RemapUnit unit{0, 3, 0, 100, 0};
    uint32_t row = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(repair.bankFlagged(0, row & 7));
        unit.row = row;
        benchmark::DoNotOptimize(repair.unitRepaired(unit));
        ++row;
    }
}
BENCHMARK(BM_FaultyBankFilter);

/** The (set, key) lines RelaxFault locks for @p region on one device. */
std::vector<std::pair<uint64_t, uint64_t>>
remapLines(const FaultRegion &region)
{
    const RelaxFaultMap map(kGeometry, kLlc, true);
    std::vector<std::pair<uint64_t, uint64_t>> lines;
    RemapUnit unit{0, 3, 0, 0, 0};
    region.forEachRemapUnit(
        kGeometry, [&](unsigned bank, uint32_t row, uint16_t col_group) {
            unit.bank = bank;
            unit.row = row;
            unit.colGroup = col_group;
            const RemapLocation loc = map.locate(unit);
            lines.emplace_back(loc.set, loc.key(map.setBits()));
        });
    return lines;
}

/** One lock-and-release of @p lines per iteration (tryAdd + reset). */
void
runTrackerAdds(benchmark::State &state,
               const std::vector<std::pair<uint64_t, uint64_t>> &lines)
{
    RepairLineTracker tracker(kLlc.sets(), RepairBudget{4, 32768});
    for (auto _ : state) {
        if (!tracker.tryAdd(lines)) {
            state.SkipWithError("fault does not fit the budget");
            break;
        }
        tracker.reset();
    }
}

void
BM_LineTrackerTryAddRowFault(benchmark::State &state)
{
    // A whole-row fault: 16 remap units, spread over 16 sets.
    RegionCluster cluster;
    cluster.bankMask = 1u << 2;
    cluster.rows = RowSet::of({12345});
    cluster.cols = ColSet::allCols();
    runTrackerAdds(state, remapLines(FaultRegion({cluster})));
}
BENCHMARK(BM_LineTrackerTryAddRowFault);

void
BM_LineTrackerTryAddColumnFault(benchmark::State &state)
{
    // One bitline down a whole 512-row subarray: 512 remap units.
    RegionCluster cluster;
    cluster.bankMask = 1u << 5;
    std::vector<uint32_t> rows;
    for (uint32_t row = 0; row < 512; ++row)
        rows.push_back(4096 + row);
    cluster.rows = RowSet::of(std::move(rows));
    cluster.cols = ColSet::of({77});
    cluster.bitMask = 1u << 9;
    runTrackerAdds(state, remapLines(FaultRegion({cluster})));
}
BENCHMARK(BM_LineTrackerTryAddColumnFault);

void
BM_LineTrackerTryAddRejected(benchmark::State &state)
{
    // A whole-bank fault would be the natural third shape, but repair
    // rejects it on its massive() pre-check before it reaches the
    // tracker. This row times the rollback path instead: under a 1-way
    // budget, a row fault plus one extra key in the set its last line
    // fills, so all 16 staged lines are undone on every call.
    RegionCluster cluster;
    cluster.bankMask = 1u << 2;
    cluster.rows = RowSet::of({12345});
    cluster.cols = ColSet::allCols();
    std::vector<std::pair<uint64_t, uint64_t>> lines =
        remapLines(FaultRegion({cluster}));
    lines.emplace_back(lines.back().first, ~uint64_t{0});
    RepairLineTracker tracker(kLlc.sets(), RepairBudget{1, 32768});
    for (auto _ : state) {
        if (tracker.tryAdd(lines)) {
            state.SkipWithError("overflowing batch was accepted");
            break;
        }
    }
}
BENCHMARK(BM_LineTrackerTryAddRejected);

void
BM_FreeFaultTryRepairRejected(benchmark::State &state)
{
    // A 64-row x all-column cluster: 16,384 lines, within the 2 MiB cap,
    // so it passes the pre-check, but under a 1-way budget two of its
    // lines soon share a set. Every call walks until that collision and
    // rolls back, leaving the mechanism empty for the next.
    RegionCluster cluster;
    cluster.bankMask = 1u << 4;
    std::vector<uint32_t> rows;
    for (uint32_t row = 0; row < 64; ++row)
        rows.push_back(20000 + 37 * row);
    cluster.rows = RowSet::of(std::move(rows));
    cluster.cols = ColSet::allCols();
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    fault.parts.push_back({0, 3, FaultRegion({cluster})});
    FreeFaultRepair repair(makeAddressMap("fig7a", kGeometry), kLlc,
                           RepairBudget{1, 32768}, true);
    for (auto _ : state) {
        if (repair.tryRepair(fault)) {
            state.SkipWithError("colliding fault was accepted");
            break;
        }
    }
}
BENCHMARK(BM_FreeFaultTryRepairRejected);

void
BM_FreeFaultTryRepairRowFault(benchmark::State &state)
{
    // An accepted whole-row fault: 256 lines from one row encode and the
    // column-delta table, then a reset for the next call.
    RegionCluster cluster;
    cluster.bankMask = 1u << 2;
    cluster.rows = RowSet::of({12345});
    cluster.cols = ColSet::allCols();
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    fault.parts.push_back({0, 3, FaultRegion({cluster})});
    FreeFaultRepair repair(makeAddressMap("fig7a", kGeometry), kLlc,
                           RepairBudget{4, 32768}, true);
    for (auto _ : state) {
        if (!repair.tryRepair(fault)) {
            state.SkipWithError("row fault was rejected");
            break;
        }
        repair.reset();
    }
}
BENCHMARK(BM_FreeFaultTryRepairRowFault);

void
BM_RelaxFaultTryRepairBankFault(benchmark::State &state)
{
    // An accepted bank-medium fault: 192 rows spread over the bank, all
    // columns, so 3,072 remap units from 192 row locates.
    RegionCluster cluster;
    cluster.bankMask = 1u << 4;
    std::vector<uint32_t> rows;
    for (uint32_t row = 0; row < 192; ++row)
        rows.push_back(300 + 341 * row);
    cluster.rows = RowSet::of(std::move(rows));
    cluster.cols = ColSet::allCols();
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    fault.parts.push_back({0, 3, FaultRegion({cluster})});
    RelaxFaultRepair repair(kGeometry, kLlc, RepairBudget{4, 32768}, true);
    for (auto _ : state) {
        if (!repair.tryRepair(fault)) {
            state.SkipWithError("bank fault was rejected");
            break;
        }
        repair.reset();
    }
}
BENCHMARK(BM_RelaxFaultTryRepairBankFault);

void
BM_FaultSamplerRandomRowsSparse(benchmark::State &state)
{
    // The bank-medium draw at its largest: 320 distinct rows of a
    // 65,536-row bank, on the sparse (rejection) path.
    const FaultGeometrySampler sampler(kGeometry, FaultGeometryParams{});
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sampler.randomRows(320, 0, kGeometry.rowsPerBank, rng));
}
BENCHMARK(BM_FaultSamplerRandomRowsSparse);

void
BM_FaultSamplerRandomRowsMedium(benchmark::State &state)
{
    // A typical bank-medium draw: 192 distinct rows of a 65,536-row bank.
    const FaultGeometrySampler sampler(kGeometry, FaultGeometryParams{});
    Rng rng(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            sampler.randomRows(192, 0, kGeometry.rowsPerBank, rng));
}
BENCHMARK(BM_FaultSamplerRandomRowsMedium);

void
BM_ChipkillEncodeLine(benchmark::State &state)
{
    uint8_t data[64];
    for (unsigned i = 0; i < 64; ++i)
        data[i] = static_cast<uint8_t>(i * 7);
    uint8_t line[72];
    for (auto _ : state) {
        LineCodec::buildLine(data, line);
        benchmark::DoNotOptimize(line);
        data[0] ^= 1;
    }
}
BENCHMARK(BM_ChipkillEncodeLine);

void
BM_ChipkillDecodeFaultyLine(benchmark::State &state)
{
    // The production read path: batched decode at the active SIMD level.
    uint8_t data[64] = {1, 2, 3};
    uint8_t clean[72];
    LineCodec::buildLine(data, clean);
    uint8_t line[72];
    for (auto _ : state) {
        std::memcpy(line, clean, 72);
        line[4 * 5 + 1] ^= 0x3c;  // One faulty device symbol.
        benchmark::DoNotOptimize(LineCodec::decodeLineBatched(line));
    }
}
BENCHMARK(BM_ChipkillDecodeFaultyLine);

void
BM_ChipkillDecodeFaultyLineScalar(benchmark::State &state)
{
    // The reference path (per-codeword table loops) regardless of the
    // dispatch level — the in-binary "before" for the batched decode.
    uint8_t data[64] = {1, 2, 3};
    uint8_t clean[72];
    LineCodec::buildLine(data, clean);
    uint8_t line[72];
    for (auto _ : state) {
        std::memcpy(line, clean, 72);
        line[4 * 5 + 1] ^= 0x3c;
        benchmark::DoNotOptimize(LineCodec::decodeLine(line));
    }
}
BENCHMARK(BM_ChipkillDecodeFaultyLineScalar);

void
BM_ChipkillDecodeCleanLine(benchmark::State &state)
{
    // The dominant case in a scrub pass: no error, one packed syndrome
    // check answers for all four codewords.
    uint8_t data[64] = {1, 2, 3};
    uint8_t clean[72];
    LineCodec::buildLine(data, clean);
    uint8_t line[72];
    for (auto _ : state) {
        std::memcpy(line, clean, 72);
        benchmark::DoNotOptimize(LineCodec::decodeLineBatched(line));
    }
}
BENCHMARK(BM_ChipkillDecodeCleanLine);

void
BM_CoalescerMerge(benchmark::State &state)
{
    // The Fig. 6 merge: substitute one device's 4B sub-block.
    uint8_t line[72] = {};
    const uint8_t remap[64] = {0xaa, 0xbb, 0xcc, 0xdd};
    unsigned device = 0;
    for (auto _ : state) {
        std::memcpy(line + device * 4, remap, 4);
        benchmark::DoNotOptimize(line);
        device = (device + 1) % 18;
    }
}
BENCHMARK(BM_CoalescerMerge);

void
BM_ControllerReadRepairedLine(benchmark::State &state)
{
    ControllerConfig config;
    RelaxFaultController controller(config);
    FaultRecord fault;
    fault.persistence = Persistence::Permanent;
    RegionCluster cluster;
    cluster.bankMask = 1;
    cluster.rows = RowSet::of({100});
    cluster.cols = ColSet::allCols();
    fault.parts.push_back({0, 3, FaultRegion({cluster})});
    controller.reportFault(fault);

    LineCoord coord;
    coord.row = 100;
    const uint64_t pa = controller.addressMap().encode(coord);
    uint8_t data[64] = {42};
    controller.write(pa, data);
    for (auto _ : state) {
        benchmark::DoNotOptimize(controller.read(pa, data));
    }
}
BENCHMARK(BM_ControllerReadRepairedLine);

/**
 * LLC model rows on the Table 3 LLC (8 MiB, 16-way, XOR-hashed). Both
 * visit lines in a fixed odd-multiplier permutation, so successive
 * accesses land in scattered sets as the simulator's do. The hit row
 * touches the LLC's own capacity (every line resident); the miss row
 * writes twice the capacity, so after one warm-up pass every set cycles
 * 32 lines through 16 ways and each access misses and evicts a dirty
 * line.
 */
void
BM_CacheModelAccessHit(benchmark::State &state)
{
    CacheModel llc(kLlc, true);
    const uint64_t mask = kLlc.lines() - 1;
    for (uint64_t line = 0; line <= mask; ++line)
        llc.access(line * 64, false);
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            llc.access(((i * 0x9E3779B1ull) & mask) * 64, false));
        ++i;
    }
    if (llc.misses() != kLlc.lines())
        state.SkipWithError("a hit-row access missed");
}
BENCHMARK(BM_CacheModelAccessHit);

void
BM_CacheModelAccessDirtyMiss(benchmark::State &state)
{
    CacheModel llc(kLlc, true);
    const uint64_t mask = 2 * kLlc.lines() - 1;
    uint64_t i = 0;
    auto next = [&] {
        return llc.access(((i++ * 0x9E3779B1ull) & mask) * 64, true);
    };
    for (uint64_t warm = 0; warm <= mask; ++warm)
        next();
    for (auto _ : state)
        benchmark::DoNotOptimize(next());
    if (llc.hits() != 0 || llc.writebacks() + kLlc.lines() != llc.misses())
        state.SkipWithError("a miss-row access hit or evicted clean");
}
BENCHMARK(BM_CacheModelAccessDirtyMiss);

void
BM_TelemetryDisabledBranch(benchmark::State &state)
{
    // The disabled-telemetry hot path: the per-trial null-registry
    // branch plus a ScopedTimer with no sink (no clock read).
    MetricRegistry *registry = nullptr;
    uint64_t work = 0;
    for (auto _ : state) {
        ScopedTimer timer(nullptr);
        benchmark::DoNotOptimize(++work);
        if (registry != nullptr)
            registry->counter("sim.trials").add(1);
        benchmark::DoNotOptimize(registry);
    }
}
BENCHMARK(BM_TelemetryDisabledBranch);

void
BM_TelemetryCounterAdd(benchmark::State &state)
{
    MetricRegistry registry;
    Counter &trials = registry.counter("sim.trials");
    for (auto _ : state) {
        trials.add(1);
    }
    benchmark::DoNotOptimize(trials.value());
}
BENCHMARK(BM_TelemetryCounterAdd);

void
BM_TelemetryHistogramRecord(benchmark::State &state)
{
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("sim.trial_us");
    uint64_t value = 1;
    for (auto _ : state) {
        hist.record(value);
        value = (value * 7 + 3) & 0xffff;
    }
    benchmark::DoNotOptimize(hist.snapshot().count);
}
BENCHMARK(BM_TelemetryHistogramRecord);

void
BM_TelemetryHistogramRecordBatch(benchmark::State &state)
{
    // The lifetime engine's batched fill: stage kCapacity samples, then
    // one positional recordBatch publish. Reported per sample.
    MetricRegistry registry;
    Log2Histogram &hist = registry.histogram("sim.trial_us");
    uint64_t values[HistogramBatch::kCapacity];
    uint64_t value = 1;
    for (auto _ : state) {
        for (auto &v : values) {
            v = value;
            value = (value * 7 + 3) & 0xffff;
        }
        hist.recordBatch(values, HistogramBatch::kCapacity);
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(HistogramBatch::kCapacity));
    benchmark::DoNotOptimize(hist.snapshot().count);
}
BENCHMARK(BM_TelemetryHistogramRecordBatch);

void
BM_FailpointDisabledEval(benchmark::State &state)
{
    // The disabled-failpoint hot path every instrumented syscall (and
    // ShmRing::tryPop) pays when nothing is armed: one relaxed atomic
    // load plus a predictable branch. Must stay at the same cost as
    // the disabled telemetry/tracer branches — the registry's
    // zero-cost-when-disabled contract.
    uint64_t work = 0;
    for (auto _ : state) {
        const FailpointHit hit = failpoint::eval(FailpointSite::FsWrite);
        benchmark::DoNotOptimize(hit.effect);
        benchmark::DoNotOptimize(++work);
    }
}
BENCHMARK(BM_FailpointDisabledEval);

void
BM_TracerDisabledEmit(benchmark::State &state)
{
    // tracer_overhead, disabled side: the null-sink branch every
    // instrumented site pays when tracing is off. The pointer is
    // volatile so the branch survives optimization, as it does in the
    // engines (where the sink is a runtime argument).
    TraceSink *volatile sink = nullptr;
    uint64_t work = 0;
    for (auto _ : state) {
        TraceSink *const s = sink;
        if (s != nullptr)
            s->emit(TraceKind::FaultArrival, kFaultSampled, work, 1, 2);
        benchmark::DoNotOptimize(++work);
    }
}
BENCHMARK(BM_TracerDisabledEmit);

void
BM_TracerEnabledEmit(benchmark::State &state)
{
    // tracer_overhead, enabled side: one 64-byte ring store per event.
    Tracer tracer;
    const uint16_t unit = tracer.registerUnit("micro");
    const TraceShardLease lease(&tracer);
    TraceSink sink(&tracer, lease.shard(), unit);
    sink.beginTrial(0);
    uint64_t work = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sink.emit(TraceKind::FaultArrival, kFaultSampled, work, 1, 2));
        ++work;
    }
}
BENCHMARK(BM_TracerEnabledEmit);

void
BM_TracerFilteredEmit(benchmark::State &state)
{
    // Enabled tracer, filtered-out kind: the accepts() mask test.
    TracerConfig config;
    config.filter = traceKindBit(TraceKind::Verdict);
    Tracer tracer(config);
    const uint16_t unit = tracer.registerUnit("micro");
    const TraceShardLease lease(&tracer);
    TraceSink sink(&tracer, lease.shard(), unit);
    sink.beginTrial(0);
    uint64_t work = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sink.emit(TraceKind::FaultArrival, kFaultSampled, work, 1, 2));
        ++work;
    }
}
BENCHMARK(BM_TracerFilteredEmit);

void
BM_StatsPublisherDisabled(benchmark::State &state)
{
    // Disabled live-stats plane: the null-slot branch the trial loop
    // pays per trial when no `--stats-plane` is given. Same contract as
    // the disabled telemetry/tracer/failpoint branches: one predictable
    // test, no atomics touched. CI pins this under 5ns.
    StatsPublisher pub;  // Default: no slot → disabled.
    uint64_t work = 0;
    for (auto _ : state) {
        pub.trialStarted();
        pub.trialFinished();
        benchmark::DoNotOptimize(++work);
    }
}
BENCHMARK(BM_StatsPublisherDisabled);

void
BM_ProfilePhaseDisabled(benchmark::State &state)
{
    // Disarmed profiler: the RAII marker's enabled() check, compiled at
    // every phase boundary in the engines. One relaxed load + branch
    // on enter, one branch on exit. CI pins this under 5ns.
    uint64_t work = 0;
    for (auto _ : state) {
        const ProfilePhase phase(ProfilePhaseId::Trial);
        benchmark::DoNotOptimize(++work);
    }
}
BENCHMARK(BM_ProfilePhaseDisabled);

/**
 * Console reporter that also keeps each per-iteration run so main can
 * emit a `relaxfault.bench.v1` record after the run.
 */
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    struct Row
    {
        std::string name;
        double nsPerOp = 0.0;
        double cpuNsPerOp = 0.0;  ///< Thread CPU time: deaf to preemption.
        int64_t iterations = 0;
    };

    void ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred)
                continue;
            Row row;
            row.name = run.run_name.str();
            row.iterations = run.iterations;
            if (run.iterations > 0) {
                const double iterations =
                    static_cast<double>(run.iterations);
                row.nsPerOp = run.real_accumulated_time * 1e9 / iterations;
                row.cpuNsPerOp = run.cpu_accumulated_time * 1e9 / iterations;
            }
            rows_.push_back(std::move(row));
        }
        benchmark::ConsoleReporter::ReportRuns(reports);
    }

    const std::vector<Row> &rows() const { return rows_; }

  private:
    std::vector<Row> rows_;
};

} // namespace

int
main(int argc, char **argv)
{
    // Peel --json[=PATH] off before google-benchmark sees the argv (its
    // strict flag parser would reject it); everything else passes
    // through untouched.
    std::string json_path;
    bool json_enabled = false;
    std::vector<char *> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json_enabled = true;
            continue;
        }
        if (arg.rfind("--json=", 0) == 0) {
            json_enabled = true;
            json_path = arg.substr(7);
            continue;
        }
        passthrough.push_back(argv[i]);
    }
    if (json_enabled && json_path.empty())
        json_path = "BENCH_micro.json";

    int filtered_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&filtered_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               passthrough.data()))
        return 1;

    CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    if (json_enabled) {
        relaxfault::RunRecord record("micro");
        record.setConfig("simd",
                         relaxfault::simdLevelName(
                             relaxfault::activeSimdLevel()));
        for (const CollectingReporter::Row &row : reporter.rows()) {
            record.addRow()
                .set("name", row.name)
                .set("ns_per_op", row.nsPerOp)
                .set("cpu_ns_per_op", row.cpuNsPerOp)
                .set("iterations", row.iterations);
        }
        std::ofstream out(json_path);
        if (!out)
            relaxfault::fatal("cannot open --json output file " +
                              json_path);
        record.writeJsonLine(out, nullptr);
        relaxfault::inform("wrote " + json_path);
    }
    return 0;
}
