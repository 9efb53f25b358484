#include "sched/global.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "sched/serial_exec.hpp"

namespace rtopex::sched {
GlobalScheduler::GlobalScheduler(unsigned num_basestations,
                                 const GlobalConfig& cfg)
    : num_basestations_(num_basestations), config_(cfg) {
  if (num_basestations == 0 || cfg.num_cores == 0)
    throw std::invalid_argument("GlobalScheduler: empty configuration");
}

sim::SchedulerMetrics GlobalScheduler::run(
    std::span<const sim::SubframeWork> work) {
  sim::SchedulerMetrics metrics;
  metrics.per_bs.resize(num_basestations_);

  obs::Tracer* const tracer = config_.tracer;
  const auto filtered = filter_faulted(work, metrics, tracer);
  const std::span<const sim::SubframeWork> active =
      filtered ? std::span<const sim::SubframeWork>(*filtered) : work;

  // Pending queue keyed by the dispatch order (EDF: deadline; FIFO:
  // arrival), with the insertion sequence as tie-break: a binary min-heap
  // over one vector reserved for the whole run. (key, seq) pairs are
  // unique, so the heap pops exactly in sorted-set order.
  const bool edf = config_.order == DispatchOrder::kEdf;
  struct Pending {
    TimePoint key;
    std::size_t seq;
    const sim::SubframeWork* work;
  };
  // "Comes after": std::*_heap keep the greatest element on top.
  const auto after = [](const Pending& a, const Pending& b) {
    return a.key != b.key ? a.key > b.key : a.seq > b.seq;
  };
  std::vector<Pending> pending;
  pending.reserve(active.size());
  std::size_t seq = 0;
  auto enqueue = [&](const sim::SubframeWork& w) {
    pending.push_back({edf ? w.deadline : w.arrival, seq++, &w});
    std::push_heap(pending.begin(), pending.end(), after);
  };

  std::vector<TimePoint> free_at(config_.num_cores, 0);
  std::vector<int> last_bs(config_.num_cores, -1);
  std::vector<bool> used(config_.num_cores, false);
  Rng pick_rng(config_.selection_seed);

  std::optional<model::OnlineEstimators> estimators =
      make_estimators(config_.adaptive, num_basestations_);
  model::OnlineEstimators* const adaptive =
      estimators ? &*estimators : nullptr;

  // Earliest-free core; among cores idle at the dispatch instant the choice
  // is uniform at random (no basestation affinity — see GlobalConfig).
  std::vector<unsigned> idle;
  idle.reserve(config_.num_cores);
  auto choose_core = [&](TimePoint head_arrival) {
    TimePoint earliest = free_at[0];
    for (const TimePoint f : free_at) earliest = std::min(earliest, f);
    const TimePoint t0 = std::max(earliest, head_arrival);
    idle.clear();
    for (unsigned c = 0; c < config_.num_cores; ++c)
      if (free_at[c] <= t0) idle.push_back(c);
    if (idle.empty()) {
      // No core idle at t0 (t0 == earliest == unique min): take the argmin.
      unsigned best = 0;
      for (unsigned c = 1; c < config_.num_cores; ++c)
        if (free_at[c] < free_at[best]) best = c;
      return best;
    }
    return idle[pick_rng.uniform_int(idle.size())];
  };

  std::size_t next = 0;
  while (next < active.size() || !pending.empty()) {
    if (pending.empty()) enqueue(active[next++]);
    // The earliest-free core serves the queue head; any subframe arriving
    // before that service instant joins the EDF choice first.
    const TimePoint head_arrival = pending.front().work->arrival;
    const unsigned core_id = choose_core(head_arrival);
    const TimePoint t0 = std::max(free_at[core_id], head_arrival);
    while (next < active.size() && active[next].arrival <= t0)
      enqueue(active[next++]);
    std::pop_heap(pending.begin(), pending.end(), after);
    const sim::SubframeWork& w = *pending.back().work;
    pending.pop_back();

    if (w.bs >= num_basestations_)
      throw std::invalid_argument("run: basestation id out of range");

    const TimePoint start =
        std::max(free_at[core_id], w.arrival) + config_.dispatch_latency;
    begin_subframe(w, core_id, start, free_at[core_id], used[core_id],
                   config_.record_samples, tracer, metrics);
    const Duration penalty =
        last_bs[core_id] == static_cast<int>(w.bs) ? 0 : config_.switch_penalty;
    const SerialOutcome o =
        execute_serial(w, start, penalty, config_.admission, config_.degrade,
                       tracer, core_id, adaptive);
    last_bs[core_id] = static_cast<int>(w.bs);
    used[core_id] = true;
    free_at[core_id] = o.end;
    finish_subframe(o, w, core_id, start, config_.record_timeline,
                    config_.record_samples, tracer, metrics);
  }
  return metrics;
}

}  // namespace rtopex::sched
