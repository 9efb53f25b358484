// Online adaptive estimators: the streaming Eq. (1) RLS fit converges to a
// seeded ground-truth coefficient vector, predictions fall back to the
// static seed until warmup and never go non-positive or non-finite under
// adversarial streams (zero-iteration jobs, fault-truncated stages,
// non-finite regressors), the per-BS iteration predictor stays inside the
// PR-2 cap, and the duration EWMAs stay division-safe.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "model/online_fit.hpp"

namespace rtopex::model {
namespace {

// The paper's GPP Eq. (1) coefficients (us): t = w0 + w1*N + w2*K + w3*D*L.
constexpr double kW0 = 31.4;
constexpr double kW1 = 169.1;
constexpr double kW2 = 49.7;
constexpr double kW3 = 93.0;

double eq1_us(unsigned antennas, unsigned mod_order, double load,
              double iters) {
  return kW0 + kW1 * antennas + kW2 * mod_order + kW3 * load * iters;
}

/// Streams `rounds` sweeps of a diverse noiseless operating grid into the
/// fit. Returns the number of observations fed.
std::size_t feed_grid(Eq1OnlineFit& fit, unsigned rounds) {
  std::size_t n = 0;
  for (unsigned r = 0; r < rounds; ++r) {
    for (unsigned antennas : {1u, 2u, 4u}) {
      for (unsigned mod : {2u, 4u, 6u}) {
        for (double load : {0.3, 0.6, 1.0}) {
          for (double iters : {1.0, 2.0, 4.0}) {
            const double us = eq1_us(antennas, mod, load, iters);
            fit.observe(antennas, mod, load, iters,
                        static_cast<Duration>(std::llround(us * 1000.0)));
            ++n;
          }
        }
      }
    }
  }
  return n;
}

TEST(Eq1OnlineFit, ConvergesToSeededEq1Coefficients) {
  Eq1OnlineFit fit;
  feed_grid(fit, 10);
  ASSERT_TRUE(fit.warmed_up());

  // Noiseless linear data (ns-quantized): the fit should land on the paper
  // coefficients to well under an Eq. (1) unit.
  const auto w = fit.coefficients_us();
  EXPECT_NEAR(w[0], kW0, 1.0);
  EXPECT_NEAR(w[1], kW1, 1.0);
  EXPECT_NEAR(w[2], kW2, 1.0);
  EXPECT_NEAR(w[3], kW3, 1.0);

  // And predictions at a point NOT on the training grid track the closed
  // form (3 antennas, QPSK, 80% load, 3 iterations).
  const double truth_us = eq1_us(3, 2, 0.8, 3.0);
  const Duration pred = fit.predict_or(3, 2, 0.8, 3.0, /*fallback=*/1);
  EXPECT_NEAR(static_cast<double>(pred) / 1000.0, truth_us,
              0.02 * truth_us);
}

TEST(Eq1OnlineFit, FallsBackUntilWarmup) {
  AdaptiveParams params;
  ASSERT_EQ(params.warmup_samples, 32u);
  Eq1OnlineFit fit(params);
  const Duration fallback = 777777;

  for (unsigned i = 0; i < params.warmup_samples - 1; ++i) {
    fit.observe(2, 4, 0.5, 2.0, 500000);
    EXPECT_FALSE(fit.warmed_up());
    EXPECT_EQ(fit.predict_or(2, 4, 0.5, 2.0, fallback), fallback);
  }
  fit.observe(2, 4, 0.5, 2.0, 500000);
  EXPECT_TRUE(fit.warmed_up());
  // Trained on a single operating point at 500 us, the warmed-up fit must
  // now answer for itself (and near the observed level, not the fallback).
  const Duration pred = fit.predict_or(2, 4, 0.5, 2.0, fallback);
  EXPECT_NE(pred, fallback);
  EXPECT_NEAR(static_cast<double>(pred), 500000.0, 50000.0);
}

TEST(Eq1OnlineFit, AdversarialStreamsNeverYieldNonPositiveOrNaN) {
  Eq1OnlineFit fit;

  // Fault-truncated stages (time <= 0) are ignored outright.
  fit.observe(2, 4, 0.5, 2.0, 0);
  fit.observe(2, 4, 0.5, 2.0, -123456);
  EXPECT_EQ(fit.samples(), 0u);

  // Non-finite regressors must not poison the state.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  fit.observe(2, 4, nan, 2.0, 500000);
  fit.observe(2, 4, 0.5, inf, 500000);

  // Degenerate stream: zero-iteration jobs at one fixed operating point —
  // a rank-deficient design the RLS can never fully identify.
  for (unsigned i = 0; i < 200; ++i) fit.observe(2, 4, 0.5, 0.0, 1000);

  // Wherever we ask — including wild extrapolations the degenerate fit has
  // no basis for — the guarded prediction is finite and >= 1 ns.
  for (unsigned antennas : {0u, 1u, 100u}) {
    for (double iters : {0.0, 1.0, 1000.0}) {
      const Duration p = fit.predict_or(antennas, 6, 1.0, iters, 42);
      EXPECT_GE(p, 1) << "antennas=" << antennas << " iters=" << iters;
    }
  }
  const auto w = fit.coefficients_us();
  for (double c : w) EXPECT_TRUE(std::isfinite(c));
}

TEST(IterationPredictor, StaysWithinTheIterationCap) {
  const unsigned lm = 4;
  IterationPredictor pred(/*initial=*/4.0, lm);
  EXPECT_GE(pred.predict(), 1u);
  EXPECT_LE(pred.predict(), lm);

  // Zero (decode never ran) is ignored.
  pred.observe(0);
  EXPECT_EQ(pred.samples(), 0u);

  // A long run of single-iteration decodes drags the mean down, but the
  // prediction never leaves [1, Lm].
  for (unsigned i = 0; i < 100; ++i) {
    pred.observe(1);
    EXPECT_GE(pred.predict(), 1u);
    EXPECT_LE(pred.predict(), lm);
  }
  EXPECT_NEAR(pred.mean(), 1.0, 0.05);

  // Absurd executed counts (above Lm — e.g. a buggy producer) still cannot
  // push the prediction past the cap.
  for (unsigned i = 0; i < 100; ++i) {
    pred.observe(1000);
    EXPECT_LE(pred.predict(), lm);
  }
  EXPECT_EQ(pred.predict(), lm);
}

TEST(DurationEwma, FallsBackThenTracksAndStaysPositive) {
  DurationEwma ewma;
  EXPECT_EQ(ewma.value_or(12345), 12345);

  // Non-positive samples are ignored; the fallback still wins.
  ewma.observe(0);
  ewma.observe(-50);
  EXPECT_EQ(ewma.samples(), 0u);
  EXPECT_EQ(ewma.value_or(12345), 12345);

  for (unsigned i = 0; i < 50; ++i) ewma.observe(20000);
  EXPECT_NEAR(static_cast<double>(ewma.value_or(1)), 20000.0, 1.0);
  // Division-safe floor even if the stream collapses toward zero.
  for (unsigned i = 0; i < 200; ++i) ewma.observe(1);
  EXPECT_GE(ewma.value_or(12345), 1);
}

TEST(DurationEwma, SeededStartMovesAQuarterOfTheWay) {
  // A seeded tracker reads its seed before any sample, and its first sample
  // moves it a quarter of the way like every later one — it never jumps to
  // the first sample the way an empty tracker does.
  DurationEwma seeded(/*alpha=*/0.25, /*seed=*/50000);
  EXPECT_EQ(seeded.value_or(1), 50000);
  seeded.observe(6400);
  EXPECT_EQ(seeded.value_or(1), 39100);  // 3/4 * 50000 + 1/4 * 6400
  seeded.observe(0);                     // ignored like any non-positive
  EXPECT_EQ(seeded.value_or(1), 39100);
  EXPECT_EQ(seeded.samples(), 1u);

  DurationEwma empty(/*alpha=*/0.25);
  empty.observe(6400);
  EXPECT_EQ(empty.value_or(1), 6400);
}

TEST(OnlineEstimators, SeededTrackersStartAtTheirSeeds) {
  OnlineEstimators est(/*num_antennas=*/2, /*num_prb=*/50,
                       /*num_basestations=*/1, /*max_iterations=*/4,
                       {.fft_subtask = 40000, .demod = 400000,
                        .decode_subtask = 800000});
  EXPECT_EQ(est.fft_subtask_or(1), 40000);
  EXPECT_EQ(est.demod_or(1), 400000);
  EXPECT_EQ(est.decode_subtask_or(1), 800000);
  est.observe_fft(8000);
  est.observe_demod(80000);
  est.observe_decode(0, 15, 2, 400000, /*decode_subtask_ns=*/200000);
  EXPECT_EQ(est.fft_subtask_or(1), 32000);
  EXPECT_EQ(est.demod_or(1), 320000);
  EXPECT_EQ(est.decode_subtask_or(1), 650000);
}

// --- refine_decode: the one refinement of a caller's decode estimate -----

/// A fit-free estimate as the sim builds it under kWcet: full at Lm on the
/// line through (400 us at L = 1, 1000 us at L = Lm = 4).
DecodeEstimate wcet_seed() {
  return {microseconds(1000), {microseconds(400), microseconds(1000)}, 4};
}

/// Feeds `est` enough steady 2-iteration decodes on basestation 0 to warm
/// the Eq. (1) fit.
void warm(OnlineEstimators& est) {
  for (unsigned i = 0; i < 64; ++i)
    est.observe_decode(/*bs=*/0, /*mcs=*/15, /*executed_iterations=*/2,
                       /*decode_ns=*/500000, /*decode_subtask_ns=*/20000);
  ASSERT_TRUE(est.decode_fit().warmed_up());
}

bool same(const DecodeEstimate& a, const DecodeEstimate& b) {
  return a.full == b.full && a.line.at_one == b.line.at_one &&
         a.line.at_lm == b.line.at_lm && a.assumed == b.assumed;
}

TEST(RefineDecode, StaticEstimationKeepsTheSeed) {
  // No online state: the caller's estimate, line and assumed iterations
  // pass through — Lm under WCET admission, 1 under optimistic admission.
  const DecodeEstimate wcet = wcet_seed();
  EXPECT_TRUE(same(refine_decode(wcet, nullptr, 0, 15, 4, true, true), wcet));
  EXPECT_EQ(refine_decode(wcet, nullptr, 0, 15, 4, true, true).assumed, 4u);
  DecodeEstimate optimistic = wcet;
  optimistic.full = microseconds(400);
  optimistic.assumed = 1;
  EXPECT_EQ(refine_decode(optimistic, nullptr, 0, 15, 4, true, true).assumed,
            1u);
}

TEST(RefineDecode, ColdFitKeepsTheSeedLineAndPredictsIterations) {
  OnlineEstimators est(2, 50, 1, 4);
  const DecodeEstimate seed = wcet_seed();
  const DecodeEstimate r = refine_decode(seed, &est, 0, 15, 4, true, true);
  // The cold fit falls back to the seed's figures; the assumed iterations
  // are the (cold) per-BS prediction.
  EXPECT_EQ(r.full, seed.full);
  EXPECT_EQ(r.line.at_one, seed.line.at_one);
  EXPECT_EQ(r.line.at_lm, seed.line.at_lm);
  EXPECT_EQ(r.assumed, est.predict_iterations(0));
}

TEST(RefineDecode, WarmFitReplacesFullAndLineOnlyWhenAsked) {
  OnlineEstimators est(2, 50, 1, 4);
  warm(est);
  const DecodeEstimate seed = wcet_seed();
  const unsigned predicted = est.predict_iterations(0);
  ASSERT_LT(predicted, 4u);

  const DecodeEstimate with_line =
      refine_decode(seed, &est, 0, 15, 4, /*fit_full=*/true,
                    /*with_line=*/true);
  EXPECT_EQ(with_line.assumed, predicted);
  EXPECT_EQ(with_line.full, est.predict_decode_at(15, predicted, seed.full));
  EXPECT_NE(with_line.full, seed.full);
  EXPECT_EQ(with_line.line.at_one,
            est.predict_decode_at(15, 1, seed.line.at_one));
  EXPECT_EQ(with_line.line.at_lm,
            est.predict_decode_at(15, 4, seed.line.at_lm));
  EXPECT_NE(with_line.line.at_lm, seed.line.at_lm);

  // Without degradation the line is never read: the seed's stays.
  const DecodeEstimate no_line =
      refine_decode(seed, &est, 0, 15, 4, /*fit_full=*/true,
                    /*with_line=*/false);
  EXPECT_EQ(no_line.full, with_line.full);
  EXPECT_EQ(no_line.assumed, predicted);
  EXPECT_EQ(no_line.line.at_one, seed.line.at_one);
  EXPECT_EQ(no_line.line.at_lm, seed.line.at_lm);

  // A caller whose full estimate is its own keeps it.
  const DecodeEstimate own =
      refine_decode(seed, &est, 0, 15, 4, /*fit_full=*/false,
                    /*with_line=*/true);
  EXPECT_EQ(own.full, seed.full);
  EXPECT_EQ(own.assumed, predicted);
  EXPECT_EQ(own.line.at_lm, with_line.line.at_lm);
}

TEST(OnlineEstimators, EndToEndWarmupAndBounds) {
  const unsigned lm = 4;
  OnlineEstimators est(/*num_antennas=*/2, /*num_prb=*/50,
                       /*num_basestations=*/4, lm);

  // Cold: every prediction defers to the caller's fallback / seed.
  const Duration fallback = 900000;
  EXPECT_EQ(est.predict_decode_at(15, est.predict_iterations(0), fallback),
            fallback);
  EXPECT_EQ(est.decode_subtask_or(4321), 4321);
  EXPECT_EQ(est.fft_subtask_or(1234), 1234);
  EXPECT_GE(est.predict_iterations(0), 1u);
  EXPECT_LE(est.predict_iterations(0), lm);

  // Warm up basestation 0 on a steady decode profile.
  for (unsigned i = 0; i < 64; ++i) {
    est.observe_decode(/*bs=*/0, /*mcs=*/15, /*executed_iterations=*/2,
                       /*decode_ns=*/500000, /*decode_subtask_ns=*/20000);
    est.observe_fft(5000);
  }
  EXPECT_TRUE(est.decode_fit().warmed_up());
  EXPECT_EQ(est.decode_samples(), 64u);

  const Duration dec =
      est.predict_decode_at(15, est.predict_iterations(0), fallback);
  EXPECT_NE(dec, fallback);
  EXPECT_GT(dec, 0);
  EXPECT_NEAR(static_cast<double>(est.decode_subtask_or(1)), 20000.0, 1.0);
  EXPECT_NEAR(static_cast<double>(est.fft_subtask_or(1)), 5000.0, 1.0);

  // Iteration predictor learned per basestation: bs 0 saw 2-iteration
  // decodes, bs 3 saw nothing and keeps its prior; both stay in [1, Lm].
  for (unsigned bs : {0u, 3u}) {
    EXPECT_GE(est.predict_iterations(bs), 1u) << "bs=" << bs;
    EXPECT_LE(est.predict_iterations(bs), lm) << "bs=" << bs;
  }
  EXPECT_LE(est.predict_iterations(0), 3u);  // mean 2 + headroom, capped.
}

// --- MeanVarEwma: the z-score backbone of the health anomaly detectors ----

TEST(MeanVarEwma, WarmupGatesTheZScore) {
  MeanVarEwma ewma(/*alpha=*/0.25, /*warmup=*/8);
  // Even a wild outlier scores 0 until `warmup` samples have landed: the
  // health layer must not page off a detector that has seen 3 buckets.
  for (int i = 0; i < 7; ++i) {
    ewma.observe(i % 2 == 0 ? 90.0 : 110.0);
    EXPECT_FALSE(ewma.warmed_up());
    EXPECT_EQ(ewma.zscore(1e6), 0.0) << "sample " << i;
  }
  ewma.observe(90.0);
  EXPECT_TRUE(ewma.warmed_up());
  EXPECT_EQ(ewma.samples(), 8u);
  EXPECT_GT(ewma.zscore(1e6), 3.0);
}

TEST(MeanVarEwma, TracksMeanAndSpreadOfAnOscillatingSignal) {
  MeanVarEwma ewma;
  for (int i = 0; i < 200; ++i) ewma.observe(i % 2 == 0 ? 900.0 : 1100.0);
  EXPECT_NEAR(ewma.mean(), 1000.0, 60.0);
  // The signal's deviation from its mean is always ~100; the EWMA sigma
  // settles in that neighbourhood.
  EXPECT_GT(ewma.stddev(), 50.0);
  EXPECT_LT(ewma.stddev(), 200.0);
  // In-band samples are unremarkable, a collapse to ~0 is loudly anomalous.
  EXPECT_LT(std::abs(ewma.zscore(1000.0)), 1.5);
  EXPECT_LT(ewma.zscore(10.0), -3.0);
  EXPECT_GT(ewma.zscore(2000.0), 3.0);
}

TEST(MeanVarEwma, ConstantSignalNeverDividesByZeroSigma) {
  MeanVarEwma ewma;
  for (int i = 0; i < 100; ++i) ewma.observe(42.0);
  EXPECT_TRUE(ewma.warmed_up());
  EXPECT_EQ(ewma.mean(), 42.0);
  EXPECT_EQ(ewma.stddev(), 0.0);
  // Degenerate spread: zscore stays 0 (finite) rather than +-inf, so a
  // perfectly steady scope can never trip an anomaly rule.
  EXPECT_EQ(ewma.zscore(42.0), 0.0);
  EXPECT_EQ(ewma.zscore(1e9), 0.0);
}

TEST(MeanVarEwma, IgnoresNonFiniteSamples) {
  MeanVarEwma ewma;
  for (int i = 0; i < 20; ++i) ewma.observe(i % 2 == 0 ? 90.0 : 110.0);
  const double mean = ewma.mean();
  const double sd = ewma.stddev();
  const std::size_t n = ewma.samples();
  ewma.observe(std::numeric_limits<double>::quiet_NaN());
  ewma.observe(std::numeric_limits<double>::infinity());
  ewma.observe(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(ewma.mean(), mean);
  EXPECT_EQ(ewma.stddev(), sd);
  EXPECT_EQ(ewma.samples(), n);
  EXPECT_TRUE(std::isfinite(ewma.zscore(150.0)));
}

TEST(MeanVarEwma, LevelShiftReconverges) {
  MeanVarEwma ewma(/*alpha=*/0.25);
  for (int i = 0; i < 100; ++i) ewma.observe(i % 2 == 0 ? 90.0 : 110.0);
  // Right after a level shift the new plateau is anomalous...
  EXPECT_GT(ewma.zscore(500.0), 3.0);
  // ...but if the detector *does* absorb it (the health layer deliberately
  // withholds anomalous samples; here we feed them), both moments forget
  // the old regime and the new level becomes the baseline.
  for (int i = 0; i < 100; ++i) ewma.observe(i % 2 == 0 ? 490.0 : 510.0);
  EXPECT_NEAR(ewma.mean(), 500.0, 30.0);
  EXPECT_LT(std::abs(ewma.zscore(500.0)), 1.5);
}

}  // namespace
}  // namespace rtopex::model
