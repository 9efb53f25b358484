#include "obs/analysis/replay.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "sched/scheduler.hpp"

namespace rtopex::obs::analysis {

namespace {

/// Drain interval during capture: 17 events per subframe, so 64 subframes
/// stay far below the default ring capacity on any one track.
constexpr std::size_t kCollectEvery = 64;

}  // namespace

void emit_job_spec(Tracer& tracer, const sim::SubframeWork& w,
                   unsigned track) {
  // In JobSpecField order: the field id is the index.
  const std::uint32_t values[kNumJobSpecFields] = {
      (w.mcs & 0xffu) | ((w.lm & 0xffu) << 8) |
          (static_cast<std::uint32_t>(w.decodable) << 16) |
          (static_cast<std::uint32_t>(w.lost) << 17),
      w.iterations,
      clamp_payload_ns(w.arrival - w.radio_time),
      clamp_payload_ns(w.deadline - w.radio_time),
      clamp_payload_ns(w.costs.fft),
      clamp_payload_ns(w.costs.demod),
      clamp_payload_ns(w.costs.decode),
      w.costs.fft_subtasks,
      clamp_payload_ns(w.costs.fft_subtask),
      w.costs.decode_subtasks,
      clamp_payload_ns(w.costs.decode_subtask),
      clamp_payload_ns(w.wcet.fft),
      clamp_payload_ns(w.wcet.demod),
      clamp_payload_ns(w.wcet.decode),
      clamp_payload_ns(w.wcet.fft_subtask),
      clamp_payload_ns(w.wcet.decode_subtask),
      clamp_payload_ns(w.decode_optimistic)};
  for (std::uint32_t field = 0; field < kNumJobSpecFields; ++field) {
    TraceEvent ev;
    ev.ts = w.radio_time;
    ev.bs = w.bs;
    ev.index = w.index;
    ev.a = field;
    ev.b = values[field];
    ev.core = track;
    ev.kind = EventKind::kJobSpec;
    tracer.emit(ev);
  }
}

void capture_workload(Tracer& tracer, std::span<const sim::SubframeWork> work,
                      unsigned track) {
  std::size_t since_collect = 0;
  for (const sim::SubframeWork& w : work) {
    emit_job_spec(tracer, w, track);
    if (++since_collect >= kCollectEvery) {
      tracer.collect();
      since_collect = 0;
    }
  }
  tracer.collect();
}

std::vector<sim::SubframeWork> recover_workload(const TraceStore& store) {
  std::vector<sim::SubframeWork> work;
  // (bs, index) -> position in `work`, so fields can land on their
  // subframe even if another track's capture interleaved in the store.
  std::map<std::uint64_t, std::size_t> position;
  for (const TraceEvent& ev : store.events) {
    if (ev.kind != EventKind::kJobSpec) continue;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(ev.bs) << 32) | ev.index;
    const auto field = static_cast<JobSpecField>(ev.a);
    if (field == JobSpecField::kMeta) {
      sim::SubframeWork w;
      w.bs = ev.bs;
      w.index = ev.index;
      w.radio_time = ev.ts;
      w.mcs = ev.b & 0xffu;
      w.lm = (ev.b >> 8) & 0xffu;
      w.decodable = (ev.b >> 16) & 1u;
      w.lost = (ev.b >> 17) & 1u;
      position[key] = work.size();
      work.push_back(w);
      continue;
    }
    const auto it = position.find(key);
    if (it == position.end())
      throw std::runtime_error(
          "recover_workload: job-spec field before its meta record");
    sim::SubframeWork& w = work[it->second];
    const auto ns = static_cast<Duration>(ev.b);
    switch (field) {
      case JobSpecField::kIterations: w.iterations = ev.b; break;
      case JobSpecField::kArrivalOffsetNs: w.arrival = w.radio_time + ns; break;
      case JobSpecField::kDeadlineOffsetNs:
        w.deadline = w.radio_time + ns;
        break;
      case JobSpecField::kFftNs: w.costs.fft = ns; break;
      case JobSpecField::kDemodNs: w.costs.demod = ns; break;
      case JobSpecField::kDecodeNs: w.costs.decode = ns; break;
      case JobSpecField::kFftSubtasks:
        w.costs.fft_subtasks = ev.b;
        w.wcet.fft_subtasks = ev.b;
        break;
      case JobSpecField::kFftSubtaskNs: w.costs.fft_subtask = ns; break;
      case JobSpecField::kDecodeSubtasks:
        w.costs.decode_subtasks = ev.b;
        w.wcet.decode_subtasks = ev.b;
        break;
      case JobSpecField::kDecodeSubtaskNs: w.costs.decode_subtask = ns; break;
      case JobSpecField::kWcetFftNs: w.wcet.fft = ns; break;
      case JobSpecField::kWcetDemodNs: w.wcet.demod = ns; break;
      case JobSpecField::kWcetDecodeNs: w.wcet.decode = ns; break;
      case JobSpecField::kWcetFftSubtaskNs: w.wcet.fft_subtask = ns; break;
      case JobSpecField::kWcetDecodeSubtaskNs:
        w.wcet.decode_subtask = ns;
        break;
      case JobSpecField::kDecodeOptimisticNs: w.decode_optimistic = ns; break;
      case JobSpecField::kMeta: break;  // handled above
      default:
        throw std::runtime_error("recover_workload: unknown job-spec field");
    }
  }
  return work;
}

ReplayResult replay(std::span<const sim::SubframeWork> workload,
                    const ReplayConfig& config) {
  unsigned num_bs = config.num_basestations;
  if (num_bs == 0) {
    for (const sim::SubframeWork& w : workload)
      num_bs = std::max(num_bs, w.bs + 1);
    if (num_bs == 0) num_bs = 1;
  }

  // The scheduler copies its config at construction, so the tracer must be
  // installed first; one extra track mirrors the runtime's ticker track.
  std::unique_ptr<sched::NodeScheduler> scheduler;
  std::unique_ptr<Tracer> tracer;
  auto make_tracer = [&](unsigned cores) {
    tracer = std::make_unique<Tracer>(cores + 1, config.ring_capacity,
                                      config.max_stored_events);
  };
  switch (config.policy) {
    case sched::SchedulerKind::kPartitioned: {
      sched::PartitionedConfig pc = config.partitioned;
      make_tracer(num_bs * pc.cores_per_bs());
      pc.tracer = tracer.get();
      scheduler = std::make_unique<sched::PartitionedScheduler>(num_bs, pc);
      break;
    }
    case sched::SchedulerKind::kGlobal: {
      sched::GlobalConfig gc = config.global;
      make_tracer(gc.num_cores);
      gc.tracer = tracer.get();
      scheduler = std::make_unique<sched::GlobalScheduler>(num_bs, gc);
      break;
    }
    case sched::SchedulerKind::kRtOpex: {
      sched::RtOpexConfig rc = config.rtopex;
      make_tracer(num_bs * rc.cores_per_bs());
      rc.tracer = tracer.get();
      scheduler = std::make_unique<sched::RtOpexScheduler>(num_bs, rc);
      break;
    }
  }
  if (!scheduler) throw std::logic_error("replay: unknown policy");

  ReplayResult result;
  result.metrics = scheduler->run(workload);
  result.scheduler_name = scheduler->name();
  result.num_cores = scheduler->num_cores();
  result.report = analyze(tracer->take(), config.analyzer);
  return result;
}

ReplayResult replay(const TraceStore& captured, const ReplayConfig& config) {
  const std::vector<sim::SubframeWork> workload = recover_workload(captured);
  if (workload.empty())
    throw std::runtime_error(
        "replay: trace carries no workload capture (kJobSpec events) — "
        "re-run the producer with capture enabled");
  return replay(workload, config);
}

ReportDelta diff_reports(const AnalysisReport& baseline,
                         const AnalysisReport& replayed) {
  ReportDelta d;
  auto sub = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<long long>(a) - static_cast<long long>(b);
  };
  for (unsigned c = 0; c < kNumMissCauses; ++c)
    d.cause_delta[c] = sub(replayed.cause_counts[c], baseline.cause_counts[c]);
  d.subframes = sub(replayed.subframes, baseline.subframes);
  d.completed = sub(replayed.completed, baseline.completed);
  d.misses = sub(replayed.misses, baseline.misses);
  d.lost = sub(replayed.lost, baseline.lost);
  d.late = sub(replayed.late, baseline.late);
  d.dropped = sub(replayed.dropped, baseline.dropped);
  d.terminated = sub(replayed.terminated, baseline.terminated);
  d.degraded = sub(replayed.degraded, baseline.degraded);
  return d;
}

std::string delta_json(const ReportDelta& d) {
  std::string out = "{";
  auto field = [&out](const char* name, long long v, bool first = false) {
    if (!first) out += ",";
    out += "\"";
    out += name;
    out += "\":";
    out += std::to_string(v);
  };
  field("subframes", d.subframes, true);
  field("completed", d.completed);
  field("misses", d.misses);
  field("lost", d.lost);
  field("late", d.late);
  field("dropped", d.dropped);
  field("terminated", d.terminated);
  field("degraded", d.degraded);
  out += ",\"causes\":{";
  for (unsigned c = 0; c < kNumMissCauses; ++c) {
    if (c) out += ",";
    out += "\"";
    out += to_string(static_cast<MissCause>(c));
    out += "\":";
    out += std::to_string(d.cause_delta[c]);
  }
  out += "},\"identical\":";
  out += d.empty() ? "true" : "false";
  out += "}";
  return out;
}

}  // namespace rtopex::obs::analysis
