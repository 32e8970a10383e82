/**
 * @file
 * Per-node collection of active faults.
 *
 * The lifetime simulator and the functional datapath both need "what is
 * broken right now": the former to classify new faults against existing
 * ones, the latter to corrupt reads. Repair does not heal cells — a
 * repaired fault still corrupts its DRAM locations; it is the controller
 * that stops *using* them — so the FunctionalDram probe exposes every
 * permanent fault regardless of repair state.
 */

#ifndef RELAXFAULT_FAULTS_FAULT_SET_H
#define RELAXFAULT_FAULTS_FAULT_SET_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dram/functional_dram.h"
#include "faults/fault.h"

namespace relaxfault {

/** Active faults of one node, with repair bookkeeping. */
class FaultSet
{
  public:
    explicit FaultSet(const DramGeometry &geometry);

    /** Add a fault; returns its index. */
    size_t addFault(FaultRecord fault);

    /** Mark/unmark a fault as repaired (remapped away from DRAM). */
    void setRepaired(size_t index, bool repaired);

    bool repaired(size_t index) const { return repaired_[index]; }

    const std::vector<FaultRecord> &faults() const { return faults_; }

    /** Drop all faults (e.g., the DIMM was replaced). */
    void clear();

    /**
     * Stuck bits of one device slice, unioned over all permanent faults.
     * The stuck *values* are a deterministic hash of the coordinates so
     * that repeated reads of a faulty location misbehave consistently.
     *
     * @param include_repaired When false, repaired faults are skipped —
     *        this is the *tracked unrepaired* damage a controller may
     *        legitimately treat as ECC erasures.
     */
    StuckBits probe(const DeviceCoord &coord,
                    bool include_repaired = true) const;

    /**
     * probe() for every device of one line at once: writes stuck[d] for
     * each device d that a permanent fault touches in the line's bank,
     * and returns the mask of the devices whose stuck bits are nonzero
     * (stuck[d] of any other device is unspecified). A line in a bank no
     * permanent fault touches returns 0 after one table load.
     */
    uint32_t probeLine(const LineCoord &coord, bool include_repaired,
                       StuckBits *stuck) const;

    /** Adapter binding probeLine(coord, true, stuck) for FunctionalDram. */
    FunctionalDram::FaultProbe makeProbe() const;

  private:
    /** byDevice_ slot of one device of one DIMM; size() if outside. */
    size_t slotOf(unsigned dimm, unsigned device) const;
    /** OR into @p stuck the masks of the listed faults' parts at coord. */
    void scan(const std::vector<uint32_t> &indices,
              const DeviceCoord &coord, bool include_repaired,
              StuckBits &stuck) const;

    DramGeometry geometry_;
    std::vector<FaultRecord> faults_;
    std::vector<bool> repaired_;
    /**
     * The ascending indices of the faults with a part on each (DIMM,
     * device) of the geometry, so probe() reads only the faults of the
     * probed device rather than every fault once per device of a line.
     * Parts outside the geometry go to offGeometry_, which every probe
     * also reads.
     */
    std::vector<std::vector<uint32_t>> byDevice_;
    std::vector<uint32_t> offGeometry_;
    /**
     * Per (DIMM, bank), the devices a permanent fault has a cluster in:
     * the only devices whose probe() can be nonzero in that bank, since
     * a part's sliceMask is zero outside its clusters' banks and an
     * off-geometry part never matches an in-geometry device. Repair
     * leaves cells faulty, so only clear() removes bits.
     */
    std::vector<uint32_t> faultyDevices_;
};

} // namespace relaxfault

#endif // RELAXFAULT_FAULTS_FAULT_SET_H
