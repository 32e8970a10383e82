/**
 * @file
 * Functional (data-holding) DRAM model with a fault overlay.
 *
 * The reliability studies in this project are statistical, but the core
 * RelaxFault datapath is also exercised *functionally*: real bytes are
 * written through the controller, corrupted by injected stuck-at faults on
 * the way back, corrected by chipkill ECC, and remapped by RelaxFault.
 * This class provides the backing store for that flow.
 *
 * Data layout of one line: devicesPerRank() * 4 bytes; device d owns bytes
 * [4d, 4d+4). Devices 16 and 17 hold the chipkill check symbols. Lines
 * live in a LineStore keyed by their rank-level coordinates.
 */

#ifndef RELAXFAULT_DRAM_FUNCTIONAL_DRAM_H
#define RELAXFAULT_DRAM_FUNCTIONAL_DRAM_H

#include <cstdint>
#include <functional>

#include "common/line_store.h"
#include "dram/geometry.h"

namespace relaxfault {

/** Stuck-at behaviour of one device's 32-bit slice of one line. */
struct StuckBits
{
    uint32_t mask = 0;   ///< Which of the 32 bits are faulty.
    uint32_t value = 0;  ///< The value those bits are stuck at.
};

/**
 * Sparse, bit-level DRAM array. Lines that were never written read back
 * as zero. A fault probe, installed by the fault model, corrupts data on
 * every read exactly where permanent faults are active.
 */
class FunctionalDram
{
  public:
    /** Most devices per rank a line (and a probe's device mask) holds. */
    static constexpr unsigned kMaxDevices = 32;

    /**
     * Callback giving the stuck bits of every device of one line: it
     * returns the mask of devices with stuck bits and writes stuck[d]
     * for each device d in that mask (other entries are unspecified).
     * One call per line read.
     */
    using FaultProbe =
        std::function<uint32_t(const LineCoord &coord, StuckBits *stuck)>;

    explicit FunctionalDram(const DramGeometry &geometry);

    /** Install (or replace) the stuck-bit provider. */
    void setFaultProbe(FaultProbe probe);

    /** Bytes per stored line (data + check devices). */
    unsigned storedLineBytes() const;

    /**
     * Store one full line (data + check bytes). Writes update the cell
     * array; stuck cells hold their stuck value regardless, which the
     * fault probe re-applies on read.
     */
    void writeLine(const LineCoord &coord, const uint8_t *bytes);

    /** Read one full line with fault corruption applied. */
    void readLine(const LineCoord &coord, uint8_t *out) const;

    /** Read one full line without corruption (test/scrub backdoor). */
    void readLineRaw(const LineCoord &coord, uint8_t *out) const;

    /** Number of lines that have been written at least once. */
    size_t allocatedLines() const { return lines_.size(); }

    const DramGeometry &geometry() const { return geometry_; }

  private:
    uint64_t lineKey(const LineCoord &coord) const;
    void fetch(const LineCoord &coord, uint8_t *out) const;

    DramGeometry geometry_;
    FaultProbe probe_;
    LineStore lines_;
};

} // namespace relaxfault

#endif // RELAXFAULT_DRAM_FUNCTIONAL_DRAM_H
