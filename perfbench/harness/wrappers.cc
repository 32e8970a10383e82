#include "wrappers.h"

namespace perfbench {

TimedMechanism::TimedMechanism(
    std::unique_ptr<relaxfault::RepairMechanism> inner, SpanTracer &tracer,
    uint64_t &successes)
    : inner_(std::move(inner)), tracer_(tracer), successes_(successes),
      tryName_(tracer.name("repair.tryRepair")),
      resetName_(tracer.name("repair.reset"))
{
}

bool
TimedMechanism::tryRepair(const relaxfault::FaultRecord &fault)
{
    const uint64_t start = nowNs();
    const bool ok = inner_->tryRepair(fault);
    tracer_.leaf(tryName_, start, nowNs());
    successes_ += ok ? 1 : 0;
    return ok;
}

void
TimedMechanism::reset()
{
    const uint64_t start = nowNs();
    inner_->reset();
    tracer_.leaf(resetName_, start, nowNs());
}

relaxfault::LifetimeSimulator::MechanismFactory
timedFactory(const relaxfault::LifetimeSimulator::MechanismFactory &inner,
             SpanTracer &tracer, uint64_t &successes)
{
    if (!inner)
        return {};
    return [inner, &tracer, &successes] {
        return std::make_unique<TimedMechanism>(inner(), tracer, successes);
    };
}

TimedStream::TimedStream(std::unique_ptr<relaxfault::AccessStream> inner,
                         SpanTracer &tracer, uint64_t &accesses)
    : inner_(std::move(inner)), tracer_(tracer), accesses_(accesses),
      nextName_(tracer.name("perf.next"))
{
}

relaxfault::MemAccess
TimedStream::next()
{
    const uint64_t start = nowNs();
    const relaxfault::MemAccess access = inner_->next();
    tracer_.leaf(nextName_, start, nowNs());
    ++accesses_;
    return access;
}

} // namespace perfbench
