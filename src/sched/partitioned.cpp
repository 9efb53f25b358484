#include "sched/partitioned.hpp"

#include <stdexcept>
#include <vector>

#include "sched/serial_exec.hpp"

namespace rtopex::sched {

PartitionedScheduler::PartitionedScheduler(unsigned num_basestations,
                                           const PartitionedConfig& cfg)
    : num_basestations_(num_basestations), config_(cfg) {
  if (num_basestations == 0)
    throw std::invalid_argument("PartitionedScheduler: no basestations");
  if (cfg.rtt_half < 0 || cfg.rtt_half >= kEndToEndBudget)
    throw std::invalid_argument("PartitionedScheduler: invalid rtt_half");
  for (const auto& f : cfg.core_failures)
    if (f.core >= num_basestations * cfg.cores_per_bs())
      throw std::invalid_argument(
          "PartitionedScheduler: core_failure id out of range");
  for (const unsigned c : cfg.unprovisioned_cores)
    if (c >= num_basestations * cfg.cores_per_bs())
      throw std::invalid_argument(
          "PartitionedScheduler: unprovisioned core id out of range");
}

unsigned PartitionedScheduler::core_of(unsigned bs,
                                       std::uint32_t subframe_index) const {
  const unsigned c = config_.cores_per_bs();
  return bs * c + subframe_index % c;
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

  // The offline partition plus the shared outage machinery (unprovisioned
  // slots fold onto real cores; failed cores repartition to survivors).
  std::vector<unsigned> assign(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    if (active[i].bs >= num_basestations_)
      throw std::invalid_argument("run: basestation id out of range");
    assign[i] = core_of(active[i].bs, active[i].index);
  }
  apply_core_outages(active, assign, num_cores(), config_.core_failures,
                     config_.unprovisioned_cores, metrics, tracer);

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
