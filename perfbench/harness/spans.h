/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * The harness opens a span around each call it makes into a layer's
 * public functions (single-threaded: spans nest on one stack). A span
 * records its name, start, end and parent; its self time is its
 * duration minus the time its children cover. Closed spans shorter than
 * a microsecond with no kept children are not stored: they fold into
 * their name's count, busy time, self time and raw-sample percentiles,
 * which every name keeps for all of its calls, as do spans past the
 * `kMaxStored` cap. `write` dumps the stored spans when the run ends.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "quantiles.h"

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

class SpanTracer
{
  public:
    using NameId = uint32_t;

    static constexpr uint64_t kKeepNs = 1000;
    /// Stored-span cap; past it, long spans fold like short ones.
    static constexpr size_t kMaxStored = 100000;

    /** Per-name aggregate over every call, stored or folded. */
    struct NameStats
    {
        std::string name;
        uint64_t calls = 0;
        uint64_t busyNs = 0;   ///< Inclusive.
        uint64_t selfNs = 0;   ///< Minus children.
        Samples durations;     ///< Inclusive, one per call.
    };

    SpanTracer();

    /** Id of @p name, registering it on first use. */
    NameId name(const std::string &name);

    /** Open a span under the innermost open span. */
    void open(NameId name);

    /** Close the innermost open span. */
    void close();

    /**
     * Record a leaf call that ran over [start, end] under the innermost
     * open span (same as open at @p start, close at @p end).
     */
    void leaf(NameId name, uint64_t start, uint64_t end);

    const NameStats &stats(NameId name) const { return names_[name]; }
    const NameStats *find(const std::string &name) const;

    /** Self time of @p name in seconds (0 if never recorded). */
    double selfSeconds(const std::string &name) const;

    /** Busy (inclusive) time of @p name in seconds. */
    double busySeconds(const std::string &name) const;

    size_t storedSpans() const { return spans_.size(); }

    /** Spans of at least kKeepNs folded because of the cap. */
    uint64_t foldedLong() const { return foldedLong_; }

    /**
     * Write the stored spans as tab-separated lines
     * `id parent name start_ns end_ns self_ns` (parent 0 = root; times
     * relative to the tracer's construction). Returns false on I/O
     * failure.
     */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        NameId name;
        uint32_t parent;     ///< Stored index + 1; 0 = no parent.
        uint64_t start;
        uint64_t end;
        uint64_t childNs;
    };

    void finish(uint32_t index, uint64_t end);

    std::vector<NameStats> names_;
    std::vector<Span> spans_;    ///< Open spans and kept closed spans.
    std::vector<uint32_t> open_; ///< Stack of open span indexes.
    uint64_t origin_;
    uint64_t foldedLong_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
