// Differential suite: the virtual-time RtOpexScheduler and the real-thread
// NodeRuntime implement the same paper mechanisms on two substrates. Their
// wall-clock numbers differ by design (DESIGN.md §2), but their *structure*
// must agree: every subframe terminates exactly once (completed, dropped or
// terminated), subtask accounting balances (migrated = hosted + recovered;
// recovered never exceeds migrated), and drops are always a subset of
// deadline misses. Matched configurations are run through both and the
// invariants checked on each side. Decode admission is compared at the
// decision level: both substrates call the same sched::admit_decode, so one
// input table must produce the same drop or degrade cap on each.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <vector>

#include "model/timing_model.hpp"
#include "phy/lte_params.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/node_runtime.hpp"
#include "sched/partitioned.hpp"
#include "sched/rt_opex.hpp"
#include "sched/serial_exec.hpp"
#include "sim/workload.hpp"
#include "support/sanitizer_pacing.hpp"
#include "transport/transport.hpp"

namespace rtopex {
namespace {

constexpr unsigned kBasestations = 2;
constexpr std::size_t kSubframesPerBs = 8;
constexpr Duration kRttHalf = microseconds(500);

std::vector<sim::SubframeWork> matched_sim_work(std::uint64_t seed,
                                                int fixed_mcs = -1,
                                                double snr_db = 30.0) {
  sim::WorkloadConfig cfg;
  cfg.num_basestations = kBasestations;
  cfg.subframes_per_bs = kSubframesPerBs;
  cfg.seed = seed;
  cfg.fixed_mcs = fixed_mcs;
  cfg.snr_db = snr_db;
  const transport::FixedTransport transport(kRttHalf);
  const sim::WorkloadGenerator gen(cfg, transport, model::paper_gpp_model());
  return gen.generate();
}

runtime::RuntimeConfig matched_runtime_config() {
  runtime::RuntimeConfig cfg;
  cfg.mode = runtime::RuntimeMode::kRtOpex;
  cfg.num_basestations = kBasestations;
  cfg.cores_per_bs = 2;
  cfg.subframes_per_bs = kSubframesPerBs;
  cfg.rtt_half = kRttHalf;
  // Real-time pacing scaled so a loaded CI host (or a sanitizer build)
  // keeps up; the structural invariants are pacing-independent.
  cfg.subframe_period = milliseconds(60);
  cfg.deadline_budget = milliseconds(120);
  cfg.mcs_cycle = {27, 16};
  cfg.phy.num_antennas = 2;
  cfg.phy.bandwidth = phy::Bandwidth::kMHz5;
  cfg.enforce_deadlines = false;
  cfg.seed = 21;
  return cfg;
}

struct Structural {
  std::size_t total = 0;
  std::size_t completed = 0;
  std::size_t dropped = 0;
  std::size_t misses = 0;
  std::size_t migrated = 0;
  std::size_t recovered = 0;
};

/// Checks the simulator's metrics invariants and reduces them to the shared
/// structural summary.
Structural check_sim_side(const sim::SchedulerMetrics& m,
                          std::size_t expected_total) {
  EXPECT_EQ(m.total_subframes, expected_total);
  // Exactly-once termination: completed + dropped + terminated == total.
  EXPECT_EQ(m.deadline_misses, m.dropped + m.terminated);
  EXPECT_EQ(static_cast<std::size_t>(m.processing_us_hist.count()),
            m.total_subframes - m.deadline_misses);
  std::size_t per_bs_subframes = 0, per_bs_misses = 0;
  for (const auto& bs : m.per_bs) {
    per_bs_subframes += bs.subframes;
    per_bs_misses += bs.misses;
  }
  EXPECT_EQ(per_bs_subframes, m.total_subframes);
  EXPECT_EQ(per_bs_misses, m.deadline_misses);
  // Subtask conservation.
  EXPECT_LE(m.fft_subtasks_migrated, m.fft_subtasks_total);
  EXPECT_LE(m.decode_subtasks_migrated, m.decode_subtasks_total);
  EXPECT_LE(m.recoveries,
            m.fft_subtasks_migrated + m.decode_subtasks_migrated);
  return {m.total_subframes, m.total_subframes - m.deadline_misses,
          m.dropped, m.deadline_misses,
          m.fft_subtasks_migrated + m.decode_subtasks_migrated, m.recoveries};
}

/// Checks the runtime report's invariants and reduces them likewise.
Structural check_runtime_side(const runtime::RuntimeReport& report,
                              std::size_t expected_total) {
  EXPECT_EQ(report.records.size(), expected_total);
  std::set<std::pair<unsigned, std::uint32_t>> seen;
  Structural s;
  s.total = report.records.size();
  for (const auto& r : report.records) {
    EXPECT_TRUE(seen.insert({r.bs, r.index}).second)
        << "subframe terminated twice: bs=" << r.bs << " idx=" << r.index;
    if (r.dropped) {
      // A dropped subframe was never decoded and always counts as a miss.
      EXPECT_TRUE(r.deadline_missed);
      EXPECT_FALSE(r.crc_ok);
      ++s.dropped;
    } else {
      ++s.completed;
    }
    if (r.deadline_missed) ++s.misses;
    EXPECT_LE(r.timing.recovered,
              r.timing.fft_migrated + r.timing.decode_migrated);
    s.migrated += r.timing.fft_migrated + r.timing.decode_migrated;
    s.recovered += r.timing.recovered;
  }
  EXPECT_EQ(s.completed + s.dropped, s.total);
  EXPECT_EQ(report.migrations, s.migrated);
  EXPECT_EQ(report.recoveries, s.recovered);
  EXPECT_EQ(report.dropped, s.dropped);
  EXPECT_EQ(report.deadline_misses, s.misses);
  return s;
}

void check_agreement(const Structural& sim_s, const Structural& rt_s) {
  // Shared structural laws, independent of substrate (the per-side checks
  // already verified that terminal dispositions partition the total):
  for (const Structural* s : {&sim_s, &rt_s}) {
    EXPECT_LE(s->dropped, s->misses);       // drops are a subset of misses
    EXPECT_LE(s->recovered, s->migrated);   // recovery never invents work
    EXPECT_LE(s->completed, s->total);
  }
  EXPECT_EQ(sim_s.total, rt_s.total);       // matched workloads, same size
}

TEST(SimRuntimeDifferentialTest, SimSideInvariantsHold) {
  const auto work = matched_sim_work(17);
  sched::RtOpexConfig rc;
  rc.rtt_half = kRttHalf;
  sched::RtOpexScheduler sched(kBasestations, rc);
  check_sim_side(sched.run(work), work.size());
}

TEST(SimRuntimeDifferentialTest, RuntimeSideInvariantsHold) {
  // Force migration through the planner hook so the subtask-conservation
  // branch is exercised even on a single-core CI host.
  runtime::fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  runtime::fault::ScopedInjection inject(std::move(hooks));

  const auto cfg = matched_runtime_config();
  runtime::NodeRuntime rt(cfg);
  const auto s = check_runtime_side(
      rt.run(), static_cast<std::size_t>(kBasestations) * kSubframesPerBs);
  EXPECT_GT(s.migrated, 0u);
}

TEST(SimRuntimeDifferentialTest, StructuresAgreeOnMatchedConfig) {
  const auto work = matched_sim_work(23);
  sched::RtOpexConfig rc;
  rc.rtt_half = kRttHalf;
  sched::RtOpexScheduler sched(kBasestations, rc);
  const Structural sim_s = check_sim_side(sched.run(work), work.size());

  runtime::fault::Hooks hooks;
  hooks.plan_window = [](unsigned, unsigned, Duration& window) {
    window = milliseconds(1000);
  };
  runtime::fault::ScopedInjection inject(std::move(hooks));
  const auto cfg = matched_runtime_config();
  runtime::NodeRuntime rt(cfg);
  const Structural rt_s = check_runtime_side(
      rt.run(), static_cast<std::size_t>(kBasestations) * kSubframesPerBs);

  check_agreement(sim_s, rt_s);
}

TEST(SimRuntimeDifferentialTest, StructuresAgreeUnderOverload) {
  // Overloaded on both substrates: high MCS at a tight budget makes the
  // slack check drop subframes. The termination and subset laws must hold
  // on both sides even when most subframes miss.
  const auto work = matched_sim_work(29, /*fixed_mcs=*/27, /*snr_db=*/24.0);
  sched::RtOpexConfig rc;
  rc.rtt_half = microseconds(700);
  sched::RtOpexScheduler sched(kBasestations, rc);
  const Structural sim_s = check_sim_side(sched.run(work), work.size());

  auto cfg = matched_runtime_config();
  cfg.enforce_deadlines = true;
  cfg.deadline_budget = milliseconds(1);  // impossible on any host
  cfg.rtt_half = microseconds(500);
  runtime::NodeRuntime rt(cfg);
  const Structural rt_s = check_runtime_side(
      rt.run(), static_cast<std::size_t>(kBasestations) * kSubframesPerBs);
  EXPECT_EQ(rt_s.dropped, rt_s.total);  // nothing fits a 1 ms budget here

  check_agreement(sim_s, rt_s);
}

// Faulty differential: fronthaul loss plus one stalled core on both
// substrates. The classification laws must agree — lost subframes are never
// deadline misses, every miss is dropped/terminated/late — and each side
// still terminates every offered subframe exactly once.
TEST(SimRuntimeDifferentialTest, StructuresAgreeUnderFaults) {
  constexpr double kLossProb = 0.25;

  sim::WorkloadConfig wc;
  wc.num_basestations = kBasestations;
  wc.subframes_per_bs = 64;  // enough to straddle the failure instant
  wc.seed = 37;
  wc.fronthaul_faults.loss_prob = kLossProb;
  const transport::FixedTransport transport(kRttHalf);
  const sim::WorkloadGenerator gen(wc, transport, model::paper_gpp_model());
  const auto work = gen.generate();

  sched::RtOpexConfig rc;
  rc.rtt_half = kRttHalf;
  rc.core_failures.push_back({0, milliseconds(32)});  // stall core 0 mid-run
  sched::RtOpexScheduler sched(kBasestations, rc);
  const auto m = sched.run(work);
  EXPECT_EQ(m.total_subframes, work.size());
  EXPECT_GT(m.resilience.lost_subframes, 0u);
  EXPECT_EQ(m.resilience.failovers, 1u);
  EXPECT_GE(m.resilience.repartitions, 1u);
  EXPECT_EQ(m.deadline_misses,
            m.dropped + m.terminated + m.resilience.late_arrivals);
  EXPECT_EQ(static_cast<std::size_t>(m.processing_us_hist.count()),
            m.total_subframes - m.deadline_misses -
                m.resilience.lost_subframes);

  // Runtime twin: same loss probability plus worker 0 killed mid-run and
  // recovered by the watchdog. The fault RNG streams differ across
  // substrates, so the counts are compared structurally, not numerically.
  auto cfg = matched_runtime_config();
  cfg.subframes_per_bs = 16;
  cfg.resilience.fronthaul_faults.loss_prob = kLossProb;
  cfg.resilience.enable_watchdog = true;
  cfg.resilience.watchdog_timeout = cfg.subframe_period;
  auto armed = std::make_shared<std::atomic<bool>>(false);
  runtime::fault::Hooks hooks;
  hooks.transport_jitter = [armed](unsigned, std::uint32_t index) {
    if (index >= 8) armed->store(true, std::memory_order_release);
    return Duration{0};
  };
  hooks.kill_worker = [armed](std::size_t worker) {
    return worker == 0 && armed->load(std::memory_order_acquire);
  };
  runtime::fault::ScopedInjection inject(std::move(hooks));
  runtime::NodeRuntime rt(cfg);
  const auto report = rt.run();

  const std::size_t offered =
      static_cast<std::size_t>(kBasestations) * cfg.subframes_per_bs;
  EXPECT_EQ(report.records.size(), offered);
  std::set<std::pair<unsigned, std::uint32_t>> seen;
  std::size_t processed = 0, rt_lost = 0, rt_late = 0, rt_dropped = 0;
  for (const auto& r : report.records) {
    EXPECT_TRUE(seen.insert({r.bs, r.index}).second);
    if (r.lost) {
      ++rt_lost;
      EXPECT_FALSE(r.deadline_missed);  // loss is not a miss, as in the sim
    } else if (r.late_arrival) {
      ++rt_late;
      EXPECT_TRUE(r.deadline_missed);
    } else if (r.dropped) {
      ++rt_dropped;
    } else {
      ++processed;
    }
  }
  EXPECT_EQ(processed + rt_dropped + rt_late + rt_lost, offered);
  EXPECT_EQ(report.resilience.lost_subframes, rt_lost);
  EXPECT_GT(rt_lost, 0u);
  EXPECT_EQ(report.resilience.failovers, 1u);
  EXPECT_EQ(report.crc_failures, 0u);
}

// The simulator's RT-OPEX must degrade to the partitioned baseline when
// migration is disabled — the differential anchor for the migration
// machinery itself (any structural divergence here is a planner bug, not a
// timing artifact).
TEST(SimRuntimeDifferentialTest, NoMigrationDegradesToPartitioned) {
  const auto work = matched_sim_work(31);
  sched::RtOpexConfig rc;
  rc.rtt_half = kRttHalf;
  rc.migrate_fft = false;
  rc.migrate_decode = false;
  sched::RtOpexScheduler opex(kBasestations, rc);
  sched::PartitionedScheduler part(kBasestations, {kRttHalf});
  const auto mo = opex.run(work);
  const auto mp = part.run(work);
  EXPECT_EQ(mo.deadline_misses, mp.deadline_misses);
  EXPECT_EQ(mo.dropped, mp.dropped);
  EXPECT_EQ(mo.terminated, mp.terminated);
  EXPECT_EQ(mo.processing_us_hist.count(), mp.processing_us_hist.count());
}

// ---- Decision-level admission differential ------------------------------

/// One shared admission input: the budget left when the decode would start,
/// the full-quality decode estimate, Lm, the degradation knobs, and the cap
/// both substrates must pick (0 drop, Lm full quality).
struct AdmissionRow {
  Duration remaining;
  Duration full_estimate;
  unsigned lm;
  sched::DegradeConfig degrade;
  unsigned expected_cap;
};

/// The decode decision a traced run made: 0 on a kDrop, the kDegrade cap,
/// or Lm when the subframe was admitted at full quality.
unsigned traced_decision(const obs::TraceStore& store, unsigned lm) {
  for (const auto& e : store.events) {
    if (e.kind == obs::EventKind::kDrop) return 0;
    if (e.kind == obs::EventKind::kDegrade) return static_cast<unsigned>(e.a);
  }
  return lm;
}

TEST(SimRuntimeDifferentialTest, AdmissionDecisionsAgreeOnSharedTable) {
  // The runtime checks at clock.now() >= arrival, so its remaining budget is
  // the row's minus the worker's wake latency — tens of ms on a loaded host.
  // The sim twin therefore starts at the instant the runtime's worker did,
  // and every row sits 45 ms (scaled under sanitizers) above the threshold
  // it must clear, with thresholds 50 ms apart, so the expected caps hold
  // as well.
  constexpr int kScale = test::pacing_scale();
  const auto ms = [](Duration v) { return milliseconds(v) * kScale; };
  constexpr unsigned kAntennas = 1;
  const Duration fft_subtask = microseconds(100) * kScale;
  const Duration demod = microseconds(600) * kScale;
  const Duration rtt_half = ms(4);
  const std::size_t fft_n =
      static_cast<std::size_t>(kAntennas) * phy::kSymbolsPerSubframe;
  // Lm = 4 over a 200 ms full estimate costs cap c at 50c ms; Lm = 8 over
  // 400 ms likewise.
  const sched::DegradeConfig on{true, 1};
  const std::vector<AdmissionRow> rows = {
      {ms(245), ms(200), 4, on, 4},          // full quality fits
      {ms(195), ms(200), 4, on, 3},          // cap Lm-1
      {ms(145), ms(200), 4, on, 2},
      {ms(95), ms(200), 4, on, 1},           // cap at the floor
      {ms(45), ms(200), 4, on, 0},           // even the floor misses: drop
      {ms(145), ms(200), 4, {true, 3}, 0},   // raised floor: drop
      {ms(195), ms(200), 4, {false, 1}, 0},  // degradation off: drop
      {ms(295), ms(400), 8, on, 5},
  };

  for (const AdmissionRow& row : rows) {
    SCOPED_TRACE(testing::Message() << "remaining " << to_us(row.remaining)
                                    << " us, Lm " << row.lm);
    runtime::RuntimeConfig cfg;
    cfg.mode = runtime::RuntimeMode::kPartitioned;
    cfg.num_basestations = 1;
    cfg.cores_per_bs = 1;
    cfg.subframes_per_bs = 1;
    cfg.subframe_period = ms(5);
    cfg.rtt_half = rtt_half;
    cfg.deadline_budget = rtt_half +
                          fft_subtask * static_cast<Duration>(fft_n) + demod +
                          row.remaining;
    cfg.mcs_cycle = {27};
    cfg.phy.bandwidth = phy::Bandwidth::kMHz5;
    cfg.phy.num_antennas = kAntennas;
    cfg.phy.max_iterations = row.lm;
    // Seeded estimates: the first subframe is admitted on exactly these.
    const unsigned blocks = phy::num_code_blocks(27, cfg.phy.num_prb());
    cfg.initial_decode_subtask_est =
        row.full_estimate / static_cast<Duration>(blocks);
    cfg.initial_fft_subtask_est = fft_subtask;
    cfg.initial_demod_est = demod;
    cfg.resilience.degrade = row.degrade;
    cfg.trace.enabled = true;
    cfg.seed = 5;
    runtime::NodeRuntime rt(cfg);
    const auto report = rt.run();
    ASSERT_EQ(report.records.size(), 1u);
    const unsigned rt_cap = traced_decision(report.trace, row.lm);

    // Sim twin: the same stage estimates, deadline and decode line through
    // the partitioned scheduler's executor, started when the worker did.
    const Duration full =
        cfg.initial_decode_subtask_est * static_cast<Duration>(blocks);
    sim::SubframeWork w;
    w.mcs = 27;
    w.lm = row.lm;
    w.iterations = row.lm;
    w.arrival = rtt_half;
    w.deadline = cfg.deadline_budget;
    w.costs.fft = fft_subtask * static_cast<Duration>(fft_n);
    w.costs.demod = demod;
    w.costs.decode = milliseconds(1);
    w.wcet.decode = full;
    w.decode_optimistic = full / static_cast<Duration>(row.lm);
    obs::Tracer sim_tracer(1);
    sched::execute_serial(w, report.records[0].start, 0,
                          sched::AdmissionPolicy::kWcet, row.degrade,
                          &sim_tracer);
    const unsigned sim_cap = traced_decision(sim_tracer.take(), row.lm);

    EXPECT_EQ(rt_cap, sim_cap);
    EXPECT_EQ(rt_cap, row.expected_cap)
        << "runtime started " << to_us(report.records[0].start - w.arrival)
        << " us after arrival";
    EXPECT_EQ(report.records[0].dropped, rt_cap == 0);
  }
}

}  // namespace
}  // namespace rtopex
