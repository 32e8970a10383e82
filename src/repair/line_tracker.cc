#include "repair/line_tracker.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/log.h"
#include "telemetry/metrics.h"

namespace relaxfault {

RepairLineTracker::RepairLineTracker(uint64_t sets,
                                     const RepairBudget &budget)
    : budget_(budget),
      ways_(static_cast<unsigned>(
          std::min<uint64_t>(budget.maxWaysPerSet, budget.maxLines))),
      load_(sets, 0)
{
}

RepairLineTracker::Stage
RepairLineTracker::begin()
{
    // Most mechanisms are built and never asked to repair, so the table
    // is mapped on first use and never filled: only slots below a set's
    // load are read, and the kernel backs just the pages those touch. A
    // private mapping rather than the heap: freeing a large malloc'd
    // block raises glibc's mmap threshold and moves every later
    // allocation of the process.
    if (!keys_) {
        const size_t bytes =
            std::max<size_t>(load_.size() * ways_ * sizeof(uint64_t), 1);
        void *table = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (table == MAP_FAILED)
            fatal("repair line tracker: cannot map " +
                  std::to_string(bytes) + " bytes: " +
                  std::strerror(errno));
        keys_ = std::unique_ptr<uint64_t[], Unmap>(
            static_cast<uint64_t *>(table), Unmap{bytes});
    }
    // Each genuinely new key is staged behind its set's committed keys,
    // so a later duplicate in the same walk finds it by the same scan.
    staged_.clear();
    touchedMark_ = touched_.size();
    overflow_ = false;
    return Stage(*this);
}

bool
RepairLineTracker::finish()
{
    if (overflow_) {
        // Roll back exactly what this call staged.
        for (const uint64_t staged_set : staged_)
            --load_[staged_set];
        touched_.resize(touchedMark_);
        return false;
    }
    usedLines_ += staged_.size();
    for (const uint64_t set : staged_)
        maxWaysUsed_ = std::max<unsigned>(maxWaysUsed_, load_[set]);
    return true;
}

uint64_t
RepairLineTracker::publishSetLoads(Log2Histogram &hist) const
{
    uint64_t occupied = 0;
    for (const uint16_t load : load_) {
        if (load == 0)
            continue;
        hist.record(load);
        ++occupied;
    }
    return occupied;
}

std::vector<uint64_t>
RepairLineTracker::sortedKeys() const
{
    std::vector<uint64_t> keys;
    if (!keys_)
        return keys;
    keys.reserve(usedLines_);
    for (uint64_t set = 0; set < sets(); ++set) {
        const uint64_t *row = keys_.get() + set * ways_;
        keys.insert(keys.end(), row, row + filled(set));
    }
    std::sort(keys.begin(), keys.end());
    return keys;
}

bool
RepairLineTracker::corruptReplaceKey(uint64_t old_key, uint64_t new_key)
{
    if (!keys_)
        return false;
    uint64_t *old_slot = nullptr;
    for (uint64_t set = 0; set < sets(); ++set) {
        uint64_t *row = keys_.get() + set * ways_;
        for (unsigned way = 0; way < filled(set); ++way) {
            if (row[way] == new_key)
                return false;
            if (row[way] == old_key)
                old_slot = &row[way];
        }
    }
    if (old_slot == nullptr)
        return false;
    *old_slot = new_key;
    return true;
}

void
RepairLineTracker::corruptSetLoad(uint64_t set, uint16_t value)
{
    touched_.push_back(set);
    load_[set] = value;
}

void
RepairLineTracker::Unmap::operator()(uint64_t *table) const
{
    ::munmap(table, bytes);
}

void
RepairLineTracker::reset()
{
    for (const uint64_t set : touched_)
        load_[set] = 0;
    touched_.clear();
    usedLines_ = 0;
    maxWaysUsed_ = 0;
}

} // namespace relaxfault
