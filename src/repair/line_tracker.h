/**
 * @file
 * Shared LLC-line allocation bookkeeping for RelaxFault and FreeFault.
 *
 * Tracks which (set, tag) repair lines are locked, enforces the per-set
 * way ceiling and the total-capacity cap, and supports all-or-nothing
 * allocation of the lines one fault needs. A mechanism streams those
 * lines in while it walks the fault's region, and the walk stops at the
 * first line that does not fit: most lines of a rejected column or bank
 * fault are then never encoded.
 *
 * A line's key fixes its set, and no set holds more than
 * `maxWaysPerSet` lines, so the keys live in one flat `sets x ways`
 * table: set s keeps its locked keys in the first `setLoad(s)` slots of
 * row s, and membership is a scan of at most `ways` slots.
 */

#ifndef RELAXFAULT_REPAIR_LINE_TRACKER_H
#define RELAXFAULT_REPAIR_LINE_TRACKER_H

#include <algorithm>
#include <concepts>
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
     * What a tryAdd walk hands each line to: `stage(set, key)` locks the
     * key behind its set's committed keys (a key already locked is
     * shared, not duplicated) and returns false once a line would exceed
     * the per-set or capacity limit. The walk should then stop.
     */
    class Stage
    {
      public:
        bool operator()(uint64_t set, uint64_t key)
        {
            return tracker_.stage(set, key);
        }

      private:
        friend class RepairLineTracker;
        explicit Stage(RepairLineTracker &tracker) : tracker_(tracker) {}
        RepairLineTracker &tracker_;
    };

    /**
     * Atomically allocate the lines @p walk stages: `walk(stage)` calls
     * `stage(set, key)` once per line. If every line fits, they are
     * committed and tryAdd returns true; otherwise exactly what the walk
     * staged is rolled back and it returns false, with no state change.
     */
    template <typename Walk>
        requires std::invocable<Walk &, Stage &>
    bool tryAdd(Walk &&walk)
    {
        Stage stage = begin();
        walk(stage);
        return finish();
    }

    /** tryAdd over a materialized (set, key) list (tests, micro rows). */
    bool tryAdd(const std::vector<std::pair<uint64_t, uint64_t>> &lines)
    {
        return tryAdd([&](Stage &stage) {
            for (const auto &[set, key] : lines) {
                if (!stage(set, key))
                    return;
            }
        });
    }

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
    /** Open a tryAdd transaction (maps the key table on first use). */
    Stage begin();

    /** Stage one line of the open transaction; false on overflow. */
    bool stage(uint64_t set, uint64_t key)
    {
        uint64_t *row = keys_.get() + set * ways_;
        const unsigned n = filled(set);
        if (std::find(row, row + n, key) != row + n)
            return true;
        if (load_[set] >= ways_ ||
            usedLines_ + staged_.size() >= budget_.maxLines) {
            overflow_ = true;
            return false;
        }
        if (load_[set] == 0)
            touched_.push_back(set);
        row[load_[set]++] = key;
        staged_.push_back(set);
        return true;
    }

    /** Commit the open transaction, or roll it back after an overflow. */
    bool finish();

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
    size_t touchedMark_ = 0;         ///< touched_ size when tryAdd began.
    bool overflow_ = false;          ///< The open tryAdd hit a limit.
    uint64_t usedLines_ = 0;
    unsigned maxWaysUsed_ = 0;
};

} // namespace relaxfault

#endif // RELAXFAULT_REPAIR_LINE_TRACKER_H
