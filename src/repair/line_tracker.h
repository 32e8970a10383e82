/**
 * @file
 * Shared LLC-line allocation bookkeeping for RelaxFault and FreeFault.
 *
 * Tracks which (set, tag) repair lines are locked, enforces the per-set
 * way ceiling and the total-capacity cap, and supports all-or-nothing
 * allocation of the lines one fault needs.
 *
 * A line's key fixes its set, and no set holds more than
 * `maxWaysPerSet` lines, so the keys live in one flat `sets x ways`
 * table: set s keeps its locked keys in the first `setLoad(s)` slots of
 * row s, and membership is a scan of at most `ways` slots.
 */

#ifndef RELAXFAULT_REPAIR_LINE_TRACKER_H
#define RELAXFAULT_REPAIR_LINE_TRACKER_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "repair/repair_mechanism.h"

namespace relaxfault {

class Log2Histogram;

/** Per-set locked-line accounting with transactional adds. */
class RepairLineTracker
{
  public:
    RepairLineTracker(uint64_t sets, const RepairBudget &budget);

    /**
     * Atomically allocate the given (set, unique key) lines. Keys that
     * are already allocated are shared, not duplicated. Returns false —
     * with no state change — if the per-set or capacity limits would be
     * exceeded.
     */
    bool tryAdd(const std::vector<std::pair<uint64_t, uint64_t>> &lines);

    /** True if @p key is locked in @p set. */
    bool contains(uint64_t set, uint64_t key) const
    {
        const unsigned n = filled(set);
        if (n == 0)
            return false;
        const uint64_t *row = keys_.get() + set * ways_;
        return std::find(row, row + n, key) != row + n;
    }

    uint64_t usedLines() const { return usedLines_; }
    unsigned maxWaysUsed() const { return maxWaysUsed_; }
    const RepairBudget &budget() const { return budget_; }

    /** Locked lines in one set. */
    unsigned setLoad(uint64_t set) const { return load_[set]; }

    /** Number of LLC sets tracked. */
    uint64_t sets() const { return load_.size(); }

    /**
     * Record every occupied set's load into @p hist (one sample per
     * nonzero set); returns the number of occupied sets.
     */
    uint64_t publishSetLoads(Log2Histogram &hist) const;

    void reset();

    /** Allocated keys in ascending order (audit walks, injection). */
    std::vector<uint64_t> sortedKeys() const;

    /**
     * Fault-injection backdoor: replace @p old_key with @p new_key in
     * its tag slot only, modeling a bit flip in the repair tag RAM. The
     * flipped key stays in the old key's set; per-set loads and line
     * counts are left untouched (the hardware counters would not see a
     * tag flip either). Returns false without changes if @p old_key is
     * absent or @p new_key present. Never called by production paths.
     */
    bool corruptReplaceKey(uint64_t old_key, uint64_t new_key);

    /**
     * Fault-injection backdoor: overwrite one set's load counter,
     * modeling a flip in the locked-way accounting. The set counts as
     * touched, so reset() clears it. Never called by production paths.
     */
    void corruptSetLoad(uint64_t set, uint16_t value);

  private:
    /** Readable slots of @p set's row: its load, clamped to the row. */
    unsigned filled(uint64_t set) const
    {
        return keys_ ? std::min<unsigned>(load_[set], ways_) : 0;
    }

    /** Releases the key table's anonymous mapping. */
    struct Unmap
    {
        size_t bytes;
        void operator()(uint64_t *table) const;
    };

    RepairBudget budget_;
    unsigned ways_;  ///< Row width: no set can lock more lines.
    std::vector<uint16_t> load_;
    /** sets() x ways_ keys; mapped on the first tryAdd, never filled. */
    std::unique_ptr<uint64_t[], Unmap> keys_;
    std::vector<uint64_t> touched_;  ///< Sets loaded since reset().
    std::vector<uint64_t> staged_;   ///< tryAdd scratch: set per new key.
    uint64_t usedLines_ = 0;
    unsigned maxWaysUsed_ = 0;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_LINE_TRACKER_H
