// Google-benchmark micro-benchmarks of the scheduling layer: planner,
// simulator policies, and workload generation throughput.
//
// Beyond the standard benchmark flags this binary understands
// --json=PATH / --baseline=PATH / --threshold=PCT (see bench_gate.hpp);
// CI's "Bench JSON artifacts" step collects the BENCH_micro_sched.json.
#include <benchmark/benchmark.h>

#include "bench_gate.hpp"
#include "core/experiment.hpp"
#include "sched/migration.hpp"

namespace rtopex {
namespace {

void BM_MigrationPlanner(benchmark::State& state) {
  const auto n_cands = static_cast<std::size_t>(state.range(0));
  std::vector<sched::MigrationCandidate> cands;
  for (unsigned c = 0; c < n_cands; ++c)
    cands.push_back({c, microseconds(200 + 100 * c)});
  sched::MigrationPlan plan;
  for (auto _ : state) {
    sched::plan_migration(6, microseconds(150), microseconds(20), cands, plan);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_MigrationPlanner)->Arg(2)->Arg(7)->Arg(15);

void BM_WorkloadGeneration(benchmark::State& state) {
  core::ExperimentConfig cfg;
  cfg.workload.num_basestations = 4;
  cfg.workload.subframes_per_bs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(core::make_workload(cfg));
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_WorkloadGeneration)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_SchedulerSimulation(benchmark::State& state) {
  core::ExperimentConfig cfg;
  cfg.workload.num_basestations = 4;
  cfg.workload.subframes_per_bs = 10000;
  cfg.scheduler = static_cast<core::SchedulerKind>(state.range(0));
  cfg.global.num_cores = 8;
  const auto work = core::make_workload(cfg);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::run_scheduler(cfg, work));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(work.size()));
  state.SetLabel(core::to_string(cfg.scheduler));
}
BENCHMARK(BM_SchedulerSimulation)
    ->Arg(static_cast<int>(core::SchedulerKind::kPartitioned))
    ->Arg(static_cast<int>(core::SchedulerKind::kGlobal))
    ->Arg(static_cast<int>(core::SchedulerKind::kRtOpex))
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rtopex

int main(int argc, char** argv) {
  rtopex::bench::GateMainOptions opts;
  opts.bench_name = "micro_sched";
  return rtopex::bench::gate_main(argc, argv, opts);
}
