#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

SpanTracer::SpanTracer() : origin_(nowNs()) {}

SpanTracer::NameId
SpanTracer::name(const std::string &name)
{
    for (NameId id = 0; id < names_.size(); ++id) {
        if (names_[id].name == name)
            return id;
    }
    names_.push_back(NameStats{name, 0, 0, 0, {}});
    return static_cast<NameId>(names_.size() - 1);
}

void
SpanTracer::open(NameId name)
{
    const uint32_t parent = open_.empty() ? 0 : open_.back() + 1;
    open_.push_back(static_cast<uint32_t>(spans_.size()));
    spans_.push_back(Span{name, parent, nowNs(), 0, 0});
}

void
SpanTracer::close()
{
    const uint64_t end = nowNs();
    const uint32_t index = open_.back();
    open_.pop_back();
    finish(index, end);
}

void
SpanTracer::leaf(NameId name, uint64_t start, uint64_t end)
{
    const uint32_t parent = open_.empty() ? 0 : open_.back() + 1;
    spans_.push_back(Span{name, parent, start, 0, 0});
    finish(static_cast<uint32_t>(spans_.size() - 1), end);
}

void
SpanTracer::finish(uint32_t index, uint64_t end)
{
    Span &span = spans_[index];
    span.end = std::max(end, span.start);
    const uint64_t duration = span.end - span.start;
    NameStats &stats = names_[span.name];
    ++stats.calls;
    stats.busyNs += duration;
    stats.selfNs += duration - std::min(duration, span.childNs);
    stats.durations.add(duration);
    if (span.parent != 0)
        spans_[span.parent - 1].childNs += duration;
    // A span whose children were all folded is the last stored element:
    // fold it too when it is short or the store is full.
    const bool full = spans_.size() > kMaxStored;
    if ((duration < kKeepNs || full) && index + 1 == spans_.size()) {
        foldedLong_ += duration >= kKeepNs ? 1 : 0;
        spans_.pop_back();
    }
}

const SpanTracer::NameStats *
SpanTracer::find(const std::string &name) const
{
    for (const NameStats &stats : names_) {
        if (stats.name == name)
            return &stats;
    }
    return nullptr;
}

double
SpanTracer::selfSeconds(const std::string &name) const
{
    const NameStats *stats = find(name);
    return stats == nullptr ? 0.0 : 1e-9 * static_cast<double>(stats->selfNs);
}

double
SpanTracer::busySeconds(const std::string &name) const
{
    const NameStats *stats = find(name);
    return stats == nullptr ? 0.0 : 1e-9 * static_cast<double>(stats->busyNs);
}

bool
SpanTracer::write(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "id\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        const uint64_t duration = span.end - span.start;
        std::fprintf(out, "%zu\t%u\t%s\t%llu\t%llu\t%llu\n", i + 1,
                     span.parent, names_[span.name].name.c_str(),
                     static_cast<unsigned long long>(span.start - origin_),
                     static_cast<unsigned long long>(span.end - origin_),
                     static_cast<unsigned long long>(
                         duration - std::min(duration, span.childNs)));
    }
    return std::fclose(out) == 0;
}

} // namespace perfbench
