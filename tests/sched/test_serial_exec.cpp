// Direct unit tests of the shared stage-chain executor with hand-built
// subframes: admission drops at each stage, deadline termination,
// completion, the two admission policies, and the shared decode admission
// rule (admit_decode) one table row per case.
#include <gtest/gtest.h>

#include <vector>

#include "model/task_cost_model.hpp"
#include "sched/serial_exec.hpp"

namespace rtopex::sched {
namespace {

sim::SubframeWork make_work(unsigned mcs, unsigned iterations,
                            Duration platform_error = 0) {
  const model::TaskCostModel cost(model::paper_gpp_model(), 2, 50);
  sim::SubframeWork w;
  w.bs = 0;
  w.index = 0;
  w.radio_time = 0;
  w.arrival = microseconds(500);
  w.deadline = milliseconds(2);
  w.mcs = mcs;
  w.iterations = iterations;
  w.costs = cost.costs(mcs, iterations, platform_error);
  w.wcet = cost.costs(mcs, 4, 0);
  w.decode_optimistic = cost.costs(mcs, 1, 0).decode;
  return w;
}

TEST(SerialExecTest, CompletesWithAmpleTime) {
  const auto w = make_work(10, 1);
  const auto o = execute_serial(w, w.arrival);
  EXPECT_TRUE(o.completed);
  EXPECT_FALSE(o.miss);
  EXPECT_EQ(o.end, w.arrival + w.costs.total());
}

TEST(SerialExecTest, EntryPenaltyDelaysCompletion) {
  const auto w = make_work(10, 1);
  const auto base = execute_serial(w, w.arrival);
  const auto delayed = execute_serial(w, w.arrival, microseconds(80));
  EXPECT_EQ(delayed.end, base.end + microseconds(80));
}

TEST(SerialExecTest, DropsAtFftWhenHopeless) {
  auto w = make_work(10, 1);
  // Start beyond the deadline minus the FFT time.
  const TimePoint late = w.deadline - w.costs.fft / 2;
  const auto o = execute_serial(w, late);
  EXPECT_TRUE(o.miss);
  EXPECT_TRUE(o.dropped);
  EXPECT_FALSE(o.terminated);
  EXPECT_EQ(o.end, late);  // nothing executed
}

TEST(SerialExecTest, DropsAtDemodWhenOnlyFftFits) {
  auto w = make_work(27, 1);
  const TimePoint late =
      w.deadline - w.costs.fft - w.costs.demod / 2;
  const auto o = execute_serial(w, late);
  EXPECT_TRUE(o.dropped);
  EXPECT_EQ(o.end, late + w.costs.fft);  // FFT ran, then the check fired
}

TEST(SerialExecTest, WcetAdmissionDropsHighMcsEvenWhenActualFits) {
  // The defining behaviour of the paper's partitioned scheduler: a subframe
  // whose *worst case* cannot fit is dropped even if its actual iteration
  // count would have fit (Fig. 17's 100%-miss cliff).
  const auto w = make_work(27, 1);  // actual L = 1 would fit in 1.5 ms
  const TimePoint start = w.arrival;  // budget 1.5 ms
  ASSERT_LT(start + w.costs.total(), w.deadline);           // actual fits
  ASSERT_GT(start + w.costs.fft + w.costs.demod + w.wcet.decode,
            w.deadline);                                    // WCET does not
  const auto wcet = execute_serial(w, start, 0, AdmissionPolicy::kWcet);
  EXPECT_TRUE(wcet.dropped);
  const auto opt = execute_serial(w, start, 0, AdmissionPolicy::kOptimistic);
  EXPECT_TRUE(opt.completed);
}

TEST(SerialExecTest, OptimisticAdmissionTerminatesAtDeadline) {
  // Optimistic admission lets a long decode start, then kills it at the
  // deadline.
  const auto w = make_work(27, 4);  // ~2.04 ms total, budget 1.5 ms
  const auto o =
      execute_serial(w, w.arrival, 0, AdmissionPolicy::kOptimistic);
  EXPECT_TRUE(o.miss);
  EXPECT_TRUE(o.terminated);
  EXPECT_EQ(o.end, w.deadline);  // the core is freed exactly at the deadline
}

TEST(SerialExecTest, PlatformJitterCanTerminateAdmittedSubframe) {
  // A subframe admitted under WCET (no-jitter bound) can still overrun via
  // the platform-error term and be terminated.
  auto w = make_work(14, 4, /*platform_error=*/microseconds(900));
  ASSERT_LE(w.arrival + w.costs.fft + w.costs.demod + w.wcet.decode,
            w.deadline);
  ASSERT_GT(w.arrival + w.costs.total(), w.deadline);
  const auto o = execute_serial(w, w.arrival, 0, AdmissionPolicy::kWcet);
  EXPECT_TRUE(o.terminated);
}

// One row per admission case. The line costs cap c at 100c us (Lm = 4
// unless the row says otherwise), so every threshold is easy to read.
struct AdmitRow {
  const char* name;
  Duration deadline;  ///< decode starts at 0: this is the remaining budget.
  Duration full_estimate;
  unsigned assumed_iters;
  unsigned lm;
  DegradeConfig degrade;
  unsigned cap;  ///< expected: 0 drop, lm full quality.
  DegradeLevel level;
  Duration estimate;
  unsigned iterations;
};

TEST(AdmitDecodeTest, TableOfCases) {
  const DecodeLine line{microseconds(100), microseconds(400)};
  const DegradeConfig on{true, 1};
  const DegradeConfig off{false, 1};
  const auto us = [](Duration v) { return microseconds(v); };
  constexpr DegradeLevel kNone = DegradeLevel::kNone;
  constexpr DegradeLevel kReduced = DegradeLevel::kReducedIterations;
  constexpr DegradeLevel kMinimal = DegradeLevel::kMinimalIterations;
  const std::vector<AdmitRow> rows = {
      {"full quality fits", us(500), us(400), 4, 4, on, 4, kNone, us(400), 4},
      {"cap Lm-1", us(350), us(400), 4, 4, on, 3, kReduced, us(300), 3},
      {"cap 2", us(250), us(400), 4, 4, on, 2, kReduced, us(200), 2},
      {"cap at the floor", us(150), us(400), 4, 4, on, 1, kMinimal, us(100),
       1},
      {"below the floor drops", us(50), us(400), 4, 4, on, 0, kNone, 0, 0},
      {"full estimate exactly at the deadline", us(400), us(400), 4, 4, on, 4,
       kNone, us(400), 4},
      {"capped estimate exactly at the deadline", us(300), us(400), 4, 4, on,
       3, kReduced, us(300), 3},
      {"raised floor is minimal", us(250), us(400), 4, 4, {true, 2}, 2,
       kMinimal, us(200), 2},
      {"raised floor drops below it", us(150), us(400), 4, 4, {true, 2}, 0,
       kNone, 0, 0},
      {"min_iterations 0 clamps to 1", us(150), us(400), 4, 4, {true, 0}, 1,
       kMinimal, us(100), 1},
      {"min_iterations >= Lm clamps to Lm-1", us(350), us(400), 4, 4,
       {true, 9}, 3, kMinimal, us(300), 3},
      {"min_iterations >= Lm drops below Lm-1", us(250), us(400), 4, 4,
       {true, 9}, 0, kNone, 0, 0},
      {"Lm 1 admits at full quality", us(400), us(400), 1, 1, on, 1, kNone,
       us(400), 1},
      {"Lm 1 never degrades", us(350), us(400), 1, 1, on, 0, kNone, 0, 0},
      {"degradation disabled drops", us(350), us(400), 4, 4, off, 0, kNone, 0,
       0},
      {"optimistic (assumed 1) drops", us(50), us(100), 1, 4, on, 0, kNone, 0,
       0},
      {"optimistic (assumed 1) never degrades", us(350), us(400), 1, 4, on, 0,
       kNone, 0, 0},
      {"predicted iterations below Lm", us(200), us(200), 2, 4, on, 4, kNone,
       us(200), 2},
      {"caps below the prediction still degrade", us(150), us(250), 2, 4, on,
       1, kMinimal, us(100), 1},
      // Regression: after the full estimate at 2 predicted iterations fails,
      // caps 3 and 2 would run those same 2 iterations. They must not be
      // admitted even though the line prices them below the deadline.
      {"cap >= assumed never admitted", us(240), us(250), 2, 4, {true, 2}, 0,
       kNone, 0, 0},
  };
  for (const AdmitRow& r : rows) {
    SCOPED_TRACE(r.name);
    const Admission a = admit_decode(0, r.deadline, r.full_estimate, line,
                                     r.assumed_iters, r.lm, r.degrade);
    EXPECT_EQ(a.cap, r.cap);
    EXPECT_EQ(a.level, r.level);
    EXPECT_EQ(a.estimate, r.estimate);
    EXPECT_EQ(a.iterations, r.iterations);
  }
}

TEST(AdmitDecodeTest, StaticLineIsTheTaskModelInterpolation) {
  // The static sim line must keep the slope-first integer expression every
  // committed figure was produced with.
  const auto w = make_work(27, 4);
  const DecodeLine line = static_decode_line(w);
  const Duration slope = (w.wcet.decode - w.decode_optimistic) /
                         static_cast<Duration>(w.lm - 1);
  for (unsigned l = 1; l <= w.lm; ++l)
    EXPECT_EQ(line.at(l, w.lm),
              w.decode_optimistic + static_cast<Duration>(l - 1) * slope);
}

}  // namespace
}  // namespace rtopex::sched
