/**
 * @file
 * Forwarding wrappers that time calls into a layer without changing
 * what the layer computes: every call goes straight to the wrapped
 * object, and only the harness's own span recorder sees the clock.
 */

#ifndef PERFBENCH_WRAPPERS_H
#define PERFBENCH_WRAPPERS_H

#include <memory>

#include "perf/access_stream.h"
#include "repair/repair_mechanism.h"
#include "sim/lifetime.h"
#include "spans.h"

namespace perfbench {

/**
 * RepairMechanism that times `tryRepair` and `reset` (their call counts
 * are the tracer's) and counts successful repairs.
 */
class TimedMechanism : public relaxfault::RepairMechanism
{
  public:
    TimedMechanism(std::unique_ptr<relaxfault::RepairMechanism> inner,
                   SpanTracer &tracer, uint64_t &successes);

    std::string name() const override { return inner_->name(); }
    bool tryRepair(const relaxfault::FaultRecord &fault) override;
    uint64_t usedLines() const override { return inner_->usedLines(); }
    unsigned maxWaysUsed() const override { return inner_->maxWaysUsed(); }
    void reset() override;
    void publishTelemetry(relaxfault::MetricRegistry &registry)
        const override
    {
        inner_->publishTelemetry(registry);
    }

  private:
    std::unique_ptr<relaxfault::RepairMechanism> inner_;
    SpanTracer &tracer_;
    uint64_t &successes_;
    SpanTracer::NameId tryName_;
    SpanTracer::NameId resetName_;
};

/**
 * Factory whose mechanisms are wrapped in TimedMechanism; an empty
 * factory (no repair) stays empty. @p tracer and @p successes must
 * outlive every mechanism built.
 */
relaxfault::LifetimeSimulator::MechanismFactory
timedFactory(const relaxfault::LifetimeSimulator::MechanismFactory &inner,
             SpanTracer &tracer, uint64_t &successes);

/** AccessStream that times `next` and counts accesses. */
class TimedStream : public relaxfault::AccessStream
{
  public:
    TimedStream(std::unique_ptr<relaxfault::AccessStream> inner,
                SpanTracer &tracer, uint64_t &accesses);

    relaxfault::MemAccess next() override;
    double mlpFactor() const override { return inner_->mlpFactor(); }
    std::string name() const override { return inner_->name(); }

  private:
    std::unique_ptr<relaxfault::AccessStream> inner_;
    SpanTracer &tracer_;
    uint64_t &accesses_;
    SpanTracer::NameId nextName_;
};

} // namespace perfbench

#endif // PERFBENCH_WRAPPERS_H
