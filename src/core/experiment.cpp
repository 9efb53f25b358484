#include "core/experiment.hpp"

#include <stdexcept>

#include "phy/lte_params.hpp"
#include "transport/transport.hpp"

namespace rtopex::core {

std::vector<sim::SubframeWork> make_workload(const ExperimentConfig& config) {
  std::unique_ptr<transport::TransportModel> transport;
  if (config.stochastic_transport) {
    // Center the fronthaul so nominal fronthaul + cloud body == rtt_half.
    transport::FronthaulModel fronthaul;
    const auto cloud = transport::cloud_params_10gbe();
    const Duration cloud_nominal = microseconds_f(cloud.body_mean_us);
    const Duration fh = config.rtt_half - cloud_nominal -
                        fronthaul.switching_overhead;
    fronthaul.fiber_km = std::max(0.0, to_us(fh) / 5.0);
    transport = std::make_unique<transport::CompositeTransport>(fronthaul, cloud);
  } else {
    transport = std::make_unique<transport::FixedTransport>(config.rtt_half);
  }
  const sim::WorkloadGenerator generator(config.workload, *transport,
                                         config.timing, config.iteration,
                                         config.platform_error);
  return generator.generate();
}

ExperimentResult run_scheduler(const ExperimentConfig& config,
                               std::span<const sim::SubframeWork> work) {
  // Sync the Eq. (1) regressor context from the workload so callers only
  // flip adaptive.enabled.
  sched::AdaptiveConfig adaptive = config.adaptive;
  adaptive.num_antennas = config.workload.num_antennas;
  adaptive.num_prb =
      phy::bandwidth_config(config.workload.bandwidth).num_prb;
  adaptive.max_iterations = config.workload.max_iterations;

  std::unique_ptr<sched::NodeScheduler> scheduler;
  switch (config.scheduler) {
    case SchedulerKind::kPartitioned: {
      sched::PartitionedConfig pc;
      pc.rtt_half = config.rtt_half;
      pc.degrade = config.degrade;
      pc.adaptive = adaptive;
      pc.record_samples = config.record_samples;
      pc.tracer = config.tracer;
      scheduler = std::make_unique<sched::PartitionedScheduler>(
          config.workload.num_basestations, pc);
      break;
    }
    case SchedulerKind::kGlobal: {
      sched::GlobalConfig gc = config.global;
      gc.degrade = config.degrade;
      gc.adaptive = adaptive;
      gc.record_samples = config.record_samples;
      gc.tracer = config.tracer;
      scheduler = std::make_unique<sched::GlobalScheduler>(
          config.workload.num_basestations, gc);
      break;
    }
    case SchedulerKind::kRtOpex: {
      sched::RtOpexConfig rc = config.rtopex;
      rc.rtt_half = config.rtt_half;
      rc.degrade = config.degrade;
      rc.adaptive = adaptive;
      rc.record_samples = config.record_samples;
      rc.tracer = config.tracer;
      scheduler = std::make_unique<sched::RtOpexScheduler>(
          config.workload.num_basestations, rc);
      break;
    }
  }
  if (!scheduler) throw std::logic_error("unknown scheduler kind");

  ExperimentResult result;
  result.metrics = scheduler->run(work);
  result.scheduler_name = scheduler->name();
  result.num_cores = scheduler->num_cores();
  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  const auto work = make_workload(config);
  return run_scheduler(config, work);
}

}  // namespace rtopex::core
