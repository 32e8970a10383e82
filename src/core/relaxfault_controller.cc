#include "core/relaxfault_controller.h"

#include <algorithm>
#include <cstring>

#include "common/log.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "tracing/trace_payloads.h"
#include "tracing/tracer.h"

namespace relaxfault {

RelaxFaultController::RelaxFaultController(const ControllerConfig &config)
    : config_(config),
      addressMap_(makeAddressMap("fig7a", config.geometry)),
      dram_(config.geometry), faults_(config.geometry),
      repair_(config.geometry, config.llc, config.budget, config.xorFold)
{
    if (config_.geometry.lineBytes != kLineBytes)
        fatal("RelaxFaultController: only 64B lines are supported");
    dram_.setFaultProbe(faults_.makeProbe());
    if (config_.degradation == DegradationPolicy::RetirePages)
        retirement_ = std::make_unique<PageRetirement>(
            addressMap_, config_.retirePageBytes, config_.retireMaxBytes);
}

unsigned
RelaxFaultController::colBlocksPerUnit() const
{
    return config_.geometry.lineBytes /
           config_.geometry.bytesPerDevicePerLine();
}

uint64_t
RelaxFaultController::unitKey(const RemapUnit &unit) const
{
    return repair_.map().locate(unit).key(repair_.map().setBits());
}

EccStatus
RelaxFaultController::fetchAndDecode(const LineCoord &coord,
                                     uint8_t line[LineCodec::kLineBytes],
                                     bool count_stats)
{
    dram_.readLine(coord, line);

    const unsigned dimm = coord.dimm(config_.geometry);
    if (repair_.bankFlagged(dimm, coord.bank)) {
        if (count_stats)
            ++stats_.bankFilterHits;
        RemapUnit unit;
        unit.dimm = dimm;
        unit.bank = coord.bank;
        unit.row = coord.row;
        unit.colGroup =
            static_cast<uint16_t>(coord.colBlock / colBlocksPerUnit());
        const unsigned slice_bytes =
            config_.geometry.bytesPerDevicePerLine();
        const unsigned offset =
            (coord.colBlock % colBlocksPerUnit()) * slice_bytes;
        for (unsigned device = 0;
             device < config_.geometry.devicesPerRank(); ++device) {
            unit.device = device;
            if (!repair_.unitRepaired(unit))
                continue;
            const RemapLine &remap = ensureFilled(unit);
            std::memcpy(line + device * slice_bytes, remap.data() + offset,
                        slice_bytes);
            if (count_stats)
                ++stats_.remapMerges;
        }
    }

    // Optional extension: tracked unrepaired devices become erasures.
    uint32_t erased_devices = 0;
    if (config_.erasureDecoding) {
        DeviceCoord probe_coord;
        probe_coord.dimm = dimm;
        probe_coord.bank = coord.bank;
        probe_coord.row = coord.row;
        probe_coord.colBlock = coord.colBlock;
        for (unsigned device = 0;
             device < config_.geometry.devicesPerRank(); ++device) {
            probe_coord.device = device;
            if (faults_.probe(probe_coord, false).mask != 0)
                erased_devices |= 1u << device;
        }
        if (erased_devices != 0 && count_stats)
            ++stats_.erasureDecodes;
    }

    LineCodec::LineResult decoded;
    {
        const ProfilePhase profile(ProfilePhaseId::EccDecode);
        decoded = LineCodec::decodeLineBatched(line, erased_devices);
    }
    if (count_stats) {
        if (decoded.status == EccStatus::Corrected)
            ++stats_.correctedReads;
        else if (decoded.status == EccStatus::Uncorrectable)
            ++stats_.uncorrectableReads;
        if (decoded.status != EccStatus::Ok && errorObserver_)
            errorObserver_(coord, decoded.correctedDeviceMask,
                           decoded.status);
    }
    return decoded.status;
}

RelaxFaultController::RemapLine &
RelaxFaultController::ensureFilled(const RemapUnit &unit)
{
    const uint64_t key = unitKey(unit);
    const auto it = remapStore_.find(key);
    if (it != remapStore_.end())
        return it->second;

    // First touch: the memory controller streams the unit's 16 column
    // blocks from the (open) DRAM row, corrects each through ECC, and
    // keeps only the faulty device's sub-blocks (paper Sec. 3.1). Other
    // already-filled repaired devices are merged in; recursion is
    // avoided by not filling new units during a fill.
    RemapLine filled{};
    const unsigned slice_bytes = config_.geometry.bytesPerDevicePerLine();
    const unsigned blocks = colBlocksPerUnit();

    LineCoord coord;
    coord.channel = unit.dimm / config_.geometry.ranksPerChannel;
    coord.rank = unit.dimm % config_.geometry.ranksPerChannel;
    coord.bank = unit.bank;
    coord.row = unit.row;

    for (unsigned i = 0; i < blocks; ++i) {
        coord.colBlock = unit.colGroup * blocks + i;
        uint8_t line[LineCodec::kLineBytes];
        dram_.readLine(coord, line);

        RemapUnit other = unit;
        for (unsigned device = 0;
             device < config_.geometry.devicesPerRank(); ++device) {
            if (device == unit.device)
                continue;
            other.device = device;
            const auto filled_it = remapStore_.find(unitKey(other));
            if (filled_it == remapStore_.end() ||
                !repair_.unitRepaired(other))
                continue;
            std::memcpy(line + device * slice_bytes,
                        filled_it->second.data() + i * slice_bytes,
                        slice_bytes);
        }
        LineCodec::decodeLineBatched(line);  // Best-effort correction.
        std::memcpy(filled.data() + i * slice_bytes,
                    line + unit.device * slice_bytes, slice_bytes);
    }
    ++stats_.remapFills;
    return remapStore_.emplace(key, filled).first->second;
}

void
RelaxFaultController::write(uint64_t pa, const uint8_t data[kLineBytes])
{
    ++stats_.writes;
    if (failedStop_)
        return;  // The node is down; writes are dropped, not absorbed.
    const LineCoord coord = addressMap_.decode(pa);

    uint8_t line[LineCodec::kLineBytes];
    LineCodec::buildLine(data, line);
    dram_.writeLine(coord, line);

    // Masked writeback into any repaired sub-blocks (paper "LLC
    // Writebacks"): keep the remap store coherent with the new data.
    const unsigned dimm = coord.dimm(config_.geometry);
    if (!repair_.bankFlagged(dimm, coord.bank))
        return;
    RemapUnit unit;
    unit.dimm = dimm;
    unit.bank = coord.bank;
    unit.row = coord.row;
    unit.colGroup =
        static_cast<uint16_t>(coord.colBlock / colBlocksPerUnit());
    const unsigned slice_bytes = config_.geometry.bytesPerDevicePerLine();
    const unsigned offset =
        (coord.colBlock % colBlocksPerUnit()) * slice_bytes;
    for (unsigned device = 0; device < config_.geometry.devicesPerRank();
         ++device) {
        unit.device = device;
        if (!repair_.unitRepaired(unit))
            continue;
        RemapLine &remap = ensureFilled(unit);
        std::memcpy(remap.data() + offset, line + device * slice_bytes,
                    slice_bytes);
    }
}

EccStatus
RelaxFaultController::read(uint64_t pa, uint8_t data[kLineBytes])
{
    return readLine(addressMap_.decode(pa), data);
}

EccStatus
RelaxFaultController::readLine(const LineCoord &coord,
                               uint8_t data[kLineBytes])
{
    ++stats_.reads;
    if (failedStop_) {
        std::memset(data, 0, kLineBytes);
        ++stats_.uncorrectableReads;
        return EccStatus::Uncorrectable;
    }
    uint8_t line[LineCodec::kLineBytes];
    const EccStatus status = fetchAndDecode(coord, line, true);
    LineCodec::extractData(line, data);
    return status;
}

size_t
RelaxFaultController::findDuplicate(const FaultRecord &fault) const
{
    const std::vector<FaultRecord> &tracked = faults_.faults();
    for (size_t i = 0; i < tracked.size(); ++i) {
        if (tracked[i].permanent() && tracked[i].mode == fault.mode &&
            tracked[i].parts == fault.parts)
            return i;
    }
    return static_cast<size_t>(-1);
}

void
RelaxFaultController::applyDegradation(const FaultRecord &fault)
{
    ++stats_.budgetExhausted;
    switch (config_.degradation) {
    case DegradationPolicy::RetirePages:
        // Retirement unmaps the faulty frames but does not remap data:
        // the fault stays in the tracked set unrepaired (the DRAM cells
        // are still bad), it just stops being referenced.
        if (retirement_ != nullptr && retirement_->tryRepair(fault)) {
            ++stats_.degradedToRetirement;
            if (trace_ != nullptr)
                trace_->emit(TraceKind::Degradation, kDegradeRetire, 1);
            return;
        }
        ++stats_.degradedDues;
        if (trace_ != nullptr)
            trace_->emit(TraceKind::Degradation, kDegradeDue, 0);
        return;
    case DegradationPolicy::CountDue:
        ++stats_.degradedDues;
        if (trace_ != nullptr)
            trace_->emit(TraceKind::Degradation, kDegradeDue, 0);
        return;
    case DegradationPolicy::FailStop:
        if (trace_ != nullptr)
            trace_->emit(TraceKind::Degradation, kDegradeFailStop,
                         failedStop_ ? 0 : 1);
        if (!failedStop_) {
            ++stats_.failStops;
            failedStop_ = true;
        }
        return;
    }
}

bool
RelaxFaultController::requestRepair(const FaultRecord &fault)
{
    if (failedStop_)
        return false;
    const bool repaired = repair_.tracedRepair(fault, trace_);
    if (!repaired) {
        applyDegradation(fault);
        return false;
    }
    ++stats_.faultsRepaired;
    // Fill the remap lines now (paper Sec. 3.1: the controller streams
    // the sub-blocks through ECC when repair is set up). Filling at
    // repair time, before further faults accumulate, maximizes the
    // chance every sub-block is still correctable.
    for (const auto &part : fault.parts) {
        RemapUnit unit;
        unit.dimm = part.dimm;
        unit.device = part.device;
        part.region.forEachRemapUnit(
            config_.geometry,
            [&](unsigned bank, uint32_t row, uint16_t col_group) {
                unit.bank = bank;
                unit.row = row;
                unit.colGroup = col_group;
                ensureFilled(unit);
            });
    }
    return true;
}

bool
RelaxFaultController::reportFault(const FaultRecord &fault)
{
    ++stats_.faultsReported;
    uint64_t report_id = 0;
    if (trace_ != nullptr) {
        trace_->setSimTime(fault.timeHours);
        report_id = trace_->emit(TraceKind::FaultArrival, kFaultReported,
                                 static_cast<uint64_t>(fault.mode),
                                 traceFaultPermanence(fault),
                                 traceFaultLocation(fault));
    }
    // Everything this report triggers — the repair decision and any
    // degradation — descends from the report's arrival event.
    const TraceParentScope report_scope(trace_, report_id);
    if (failedStop_)
        return false;
    if (fault.permanent()) {
        // Retried error reports (and a scrubber re-finding known damage)
        // deliver the same fault twice. Re-adding it would skew the
        // probe's repaired-state view, and re-repairing it would burn
        // budget on lines that are already locked.
        const size_t duplicate = findDuplicate(fault);
        if (duplicate != static_cast<size_t>(-1)) {
            ++stats_.duplicateFaults;
            if (faults_.repaired(duplicate))
                return true;  // Already remapped; nothing to do.
            // Known but unrepaired (e.g. budget was exhausted then):
            // retry repair without re-registering the fault.
            const bool repaired = requestRepair(fault);
            if (repaired)
                faults_.setRepaired(duplicate, true);
            return repaired;
        }
    }
    const size_t index = faults_.addFault(fault);
    if (!fault.permanent())
        return true;  // Transients need no repair; ECC absorbed them.
    const bool repaired = requestRepair(fault);
    if (repaired)
        faults_.setRepaired(index, true);
    return repaired;
}

void
RelaxFaultController::setErrorObserver(ErrorObserver observer)
{
    errorObserver_ = std::move(observer);
}

std::vector<uint64_t>
RelaxFaultController::remapStoreKeys() const
{
    std::vector<uint64_t> keys;
    keys.reserve(remapStore_.size());
    for (const auto &[key, line] : remapStore_)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

void
RelaxFaultController::publishTelemetry(MetricRegistry &registry) const
{
    const ControllerStats &s = stats_;
    registry.gauge("controller.reads").set(
        static_cast<int64_t>(s.reads));
    registry.gauge("controller.writes").set(
        static_cast<int64_t>(s.writes));
    registry.gauge("controller.corrected_reads").set(
        static_cast<int64_t>(s.correctedReads));
    registry.gauge("controller.uncorrectable_reads").set(
        static_cast<int64_t>(s.uncorrectableReads));
    registry.gauge("controller.remap_merges").set(
        static_cast<int64_t>(s.remapMerges));
    registry.gauge("controller.remap_fills").set(
        static_cast<int64_t>(s.remapFills));
    registry.gauge("controller.erasure_decodes").set(
        static_cast<int64_t>(s.erasureDecodes));
    registry.gauge("controller.bank_filter_hits").set(
        static_cast<int64_t>(s.bankFilterHits));
    registry.gauge("controller.faults_reported").set(
        static_cast<int64_t>(s.faultsReported));
    registry.gauge("controller.faults_repaired").set(
        static_cast<int64_t>(s.faultsRepaired));
    registry.gauge("controller.remap_store_lines").set(
        static_cast<int64_t>(remapStore_.size()));
    registry.gauge("controller.duplicate_faults").set(
        static_cast<int64_t>(s.duplicateFaults));
    registry.gauge("controller.budget_exhausted").set(
        static_cast<int64_t>(s.budgetExhausted));
    registry.gauge("controller.degraded_to_retirement").set(
        static_cast<int64_t>(s.degradedToRetirement));
    registry.gauge("controller.degraded_dues").set(
        static_cast<int64_t>(s.degradedDues));
    registry.gauge("controller.fail_stops").set(
        static_cast<int64_t>(s.failStops));
    if (retirement_ != nullptr)
        registry.gauge("controller.retired_pages").set(
            static_cast<int64_t>(retirement_->retiredPages()));
    repair_.publishTelemetry(registry);
}

StorageOverhead
RelaxFaultController::storageOverhead(const ControllerConfig &config)
{
    StorageOverhead overhead;
    overhead.faultyBankTableBytes =
        config.geometry.dimmsPerNode() *
        ((config.geometry.banksPerDevice + 7) / 8);
    // Pre-computed merge bitmasks for the data coalescer (paper Table 1).
    overhead.coalescerBytes = 128;
    overhead.llcTagExtensionBytes = config.llc.lines() / 8;
    return overhead;
}

} // namespace relaxfault
