#include "sched/partitioned.hpp"

#include <stdexcept>
#include <vector>

#include "sched/serial_exec.hpp"

namespace rtopex::sched {

void PartitionedConfig::validate(unsigned num_basestations) const {
  if (num_basestations == 0)
    throw std::invalid_argument("partition: no basestations");
  if (rtt_half < 0 || rtt_half >= kEndToEndBudget)
    throw std::invalid_argument("partition: invalid rtt_half");
  const unsigned cores = num_basestations * cores_per_bs();
  for (const auto& f : core_failures)
    if (f.core >= cores)
      throw std::invalid_argument("partition: core_failure id out of range");
  for (const unsigned c : unprovisioned_cores)
    if (c >= cores)
      throw std::invalid_argument(
          "partition: unprovisioned core id out of range");
}

std::vector<TimePoint> PartitionedConfig::assign_cores(
    std::span<const sim::SubframeWork> active, unsigned num_basestations,
    std::vector<unsigned>& assign, sim::SchedulerMetrics& metrics) const {
  assign.resize(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (active[i].bs >= num_basestations)
      throw std::invalid_argument("run: basestation id out of range");
    assign[i] = core_of(active[i].bs, active[i].index);
  }
  return apply_core_outages(active, assign,
                            num_basestations * cores_per_bs(), core_failures,
                            unprovisioned_cores, metrics, tracer);
}

PartitionedScheduler::PartitionedScheduler(unsigned num_basestations,
                                           const PartitionedConfig& cfg)
    : num_basestations_(num_basestations), config_(cfg) {
  cfg.validate(num_basestations);
}

sim::SchedulerMetrics PartitionedScheduler::run(
    std::span<const sim::SubframeWork> work) {
  sim::SchedulerMetrics metrics;
  metrics.per_bs.resize(num_basestations_);
  std::vector<TimePoint> free_at(num_cores(), 0);
  std::vector<bool> used(num_cores(), false);

  obs::Tracer* const tracer = config_.tracer;
  const auto filtered = filter_faulted(work, metrics, tracer);
  const std::span<const sim::SubframeWork> active =
      filtered ? std::span<const sim::SubframeWork>(*filtered) : work;

  std::optional<model::OnlineEstimators> estimators =
      make_estimators(config_.adaptive, num_basestations_);
  model::OnlineEstimators* const adaptive =
      estimators ? &*estimators : nullptr;

  std::vector<unsigned> assign;
  config_.assign_cores(active, num_basestations_, assign, metrics);

  for (std::size_t wi = 0; wi < active.size(); ++wi) {
    const auto& w = active[wi];
    const unsigned core = assign[wi];
    const TimePoint start = std::max(w.arrival, free_at[core]);
    begin_subframe(w, core, start, free_at[core], used[core],
                   config_.record_samples, tracer, metrics);

    const SerialOutcome o = execute_serial(w, start, 0, config_.admission,
                                           config_.degrade, tracer, core,
                                           adaptive);
    free_at[core] = o.end;
    used[core] = true;
    finish_subframe(o, w, core, start, config_.record_timeline,
                    config_.record_samples, tracer, metrics);
  }
  return metrics;
}

}  // namespace rtopex::sched
