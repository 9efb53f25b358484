// Online adaptive estimators closing the loop from executed stage times
// back into the Eq. (1) cost model (ROADMAP item 5): a recursive
// least-squares fit over Eq. (1)'s regressors streamed one observation at
// a time, per-basestation EWMA predictors of the executed turbo-iteration
// count, and NaN-proof EWMA duration trackers for adaptive migration-chunk
// sizing. Everything here is substrate-agnostic: the virtual-time sim
// feeds it exact stage costs, the real-thread runtime feeds it wall-clock
// measurements, and both fall back to the static seeded estimates until
// the fit has warmed up — a disabled/empty estimator never changes a
// decision.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "common/time_types.hpp"
#include "model/timing_model.hpp"

namespace rtopex::model {

/// Tuning knobs shared by every online estimator. The defaults favour
/// stability over reaction speed: forgetting keeps roughly the last
/// 1/(1-lambda) ~ 200 subframes alive, and predictions only replace the
/// static seeds after `warmup_samples` observations.
struct AdaptiveParams {
  double rls_lambda = 0.995;  ///< RLS forgetting factor in (0, 1].
  double rls_delta = 1e3;     ///< initial covariance scale (P = delta*I).
  /// Observations before predict_or() trusts the fit over the fallback.
  unsigned warmup_samples = 32;
  double iteration_alpha = 0.25;  ///< EWMA gain for the iteration predictor.
  /// Extra turbo iterations of safety margin added to the EWMA mean before
  /// rounding up (guards against admission on an under-estimate).
  double iteration_headroom = 0.5;
  double duration_alpha = 0.25;  ///< EWMA gain for duration trackers.
};

/// Recursive least squares over Eq. (1)'s four regressors
/// x = [1, N, K, D*L] with exponential forgetting:
///
///   k      = P x / (lambda + x' P x)
///   theta += k (y - x' theta)
///   P      = (P - k x' P) / lambda
///
/// Numerically guarded: an observation whose gain denominator degenerates
/// (or that would push any coefficient to a non-finite value) is dropped
/// rather than poisoning the state.
class RlsEstimator {
 public:
  static constexpr std::size_t kDim = 4;

  explicit RlsEstimator(double lambda = 0.995, double delta = 1e3);

  /// Folds one (regressors, response) pair into the fit. Non-finite inputs
  /// are ignored.
  void observe(const std::array<double, kDim>& x, double y);

  /// theta' x — the raw linear prediction (no guards; see Eq1OnlineFit for
  /// the guarded entry point).
  double predict(const std::array<double, kDim>& x) const;

  std::size_t samples() const { return samples_; }
  const std::array<double, kDim>& coefficients() const { return theta_; }

 private:
  double lambda_;
  std::array<double, kDim> theta_{};
  std::array<std::array<double, kDim>, kDim> p_{};
  std::size_t samples_ = 0;
};

/// Streaming Eq. (1) fit: learns processing time (of whatever stage the
/// caller feeds it — the sim uses the decode stage, bench/tab01 the whole
/// chain) as a linear function of [1, N, K, D*L]. Predictions are guarded:
/// until warmup, or whenever the fitted value is non-finite or
/// non-positive, the caller's fallback wins — so an adversarial stream
/// (zero-iteration jobs, fault-truncated stages) can never produce a
/// non-positive or NaN estimate.
class Eq1OnlineFit {
 public:
  explicit Eq1OnlineFit(const AdaptiveParams& params = {});

  /// One executed observation. Non-positive durations (a stage that never
  /// ran, e.g. fault-truncated) are ignored.
  void observe(unsigned antennas, unsigned modulation_order,
               double subcarrier_load, double iterations, Duration time);

  /// Fitted estimate at the given operating point, or `fallback` until the
  /// fit is warmed up / whenever the fit is degenerate. Never returns a
  /// value below 1 ns.
  Duration predict_or(unsigned antennas, unsigned modulation_order,
                      double subcarrier_load, double iterations,
                      Duration fallback) const;

  bool warmed_up() const { return rls_.samples() >= params_.warmup_samples; }
  std::size_t samples() const { return rls_.samples(); }
  /// Current coefficients in Eq. (1)'s units (us): {w0, w1, w2, w3}.
  std::array<double, RlsEstimator::kDim> coefficients_us() const {
    return rls_.coefficients();
  }

 private:
  AdaptiveParams params_;
  RlsEstimator rls_;
};

/// Per-basestation EWMA over executed turbo-iteration counts. predict()
/// adds the configured headroom, rounds up, and clamps into [1, Lm] — it
/// can never exceed the PR-2 iteration cap or drop below one iteration.
class IterationPredictor {
 public:
  IterationPredictor(double initial, unsigned max_iterations,
                     const AdaptiveParams& params = {});

  /// One executed iteration count; zero (decode never ran) is ignored.
  void observe(unsigned executed);

  unsigned predict() const;
  double mean() const { return mean_; }
  std::size_t samples() const { return samples_; }

 private:
  double mean_;
  unsigned lm_;
  AdaptiveParams params_;
  std::size_t samples_ = 0;
};

/// NaN-proof EWMA over a nanosecond duration. Non-positive samples are
/// ignored and value_or() never returns below 1 ns, so a consumer sizing
/// migration chunks can divide by it safely.
class DurationEwma {
 public:
  explicit DurationEwma(double alpha = 0.25) : alpha_(alpha) {}

  void observe(Duration sample);
  /// EWMA value once at least one sample landed, else `fallback`; >= 1 ns.
  Duration value_or(Duration fallback) const;
  std::size_t samples() const { return samples_; }

 private:
  double alpha_;
  double value_ = 0.0;
  std::size_t samples_ = 0;
};

/// EWMA tracker of a scalar signal's mean *and* variance, the z-score
/// backbone of the health-layer anomaly detectors (obs/health): variance is
/// an EWMA of squared deviations from the running mean, so both moments
/// forget at the same rate and a level shift shows up as a large |z| until
/// the tracker re-converges. NaN-proof like DurationEwma: non-finite
/// samples are ignored, and zscore() returns 0 until the tracker has both
/// warmed up (>= warmup samples) and observed genuine spread — a constant
/// signal never divides by a zero sigma.
class MeanVarEwma {
 public:
  explicit MeanVarEwma(double alpha = 0.25, std::size_t warmup = 8)
      : alpha_(alpha), warmup_(warmup) {}

  void observe(double sample);

  double mean() const { return mean_; }
  /// sqrt of the deviation EWMA; 0 until two samples landed.
  double stddev() const;
  /// (x - mean) / stddev, or 0 while warming up / on degenerate spread.
  double zscore(double x) const;
  bool warmed_up() const { return samples_ >= warmup_; }
  std::size_t samples() const { return samples_; }

 private:
  double alpha_;
  std::size_t warmup_;
  double mean_ = 0.0;
  double var_ = 0.0;
  std::size_t samples_ = 0;
};

/// Bundle wired into the schedulers when adaptive estimation is enabled:
/// the decode-stage Eq. (1) fit, one iteration predictor per basestation,
/// and the per-subtask duration trackers replacing Algorithm 1's fixed
/// chunk constants. All observe/predict helpers resolve the Eq. (1)
/// regressors from (mcs, bs) via the PHY tables, so scheduler call sites
/// stay one-liners.
class OnlineEstimators {
 public:
  OnlineEstimators(unsigned num_antennas, unsigned num_prb,
                   unsigned num_basestations, unsigned max_iterations,
                   const AdaptiveParams& params = {});

  // Prediction side (consulted before execution) -------------------------
  /// Predicted turbo iterations for `bs` (headroom included, in [1, Lm]).
  unsigned predict_iterations(unsigned bs) const;
  /// Decode-stage estimate at `iterations` turbo iterations, or `fallback`
  /// until the fit warms up. The admission estimate is the
  /// iterations = predict_iterations(bs) case; L = 1 and L = Lm give the
  /// anchors of the line capped decodes are costed on.
  Duration predict_decode_at(unsigned mcs, unsigned iterations,
                             Duration fallback) const;
  /// Learned per-code-block decode time (adaptive migration chunk size).
  Duration decode_subtask_or(Duration fallback) const {
    return decode_subtask_.value_or(fallback);
  }
  /// Learned per-FFT-subtask time.
  Duration fft_subtask_or(Duration fallback) const {
    return fft_subtask_.value_or(fallback);
  }

  // Observation side (fed after execution) -------------------------------
  /// Executed decode stage: total stage time, per-code-block time, and the
  /// iteration count the turbo loop actually ran.
  void observe_decode(unsigned bs, unsigned mcs, unsigned executed_iterations,
                      Duration decode_ns, Duration decode_subtask_ns);
  void observe_fft(Duration fft_subtask_ns);

  const Eq1OnlineFit& decode_fit() const { return fit_; }
  std::size_t decode_samples() const { return fit_.samples(); }

 private:
  unsigned antennas_;
  unsigned num_prb_;
  unsigned lm_;
  AdaptiveParams params_;
  Eq1OnlineFit fit_;
  std::vector<IterationPredictor> per_bs_;
  DurationEwma decode_subtask_;
  DurationEwma fft_subtask_;
};

}  // namespace rtopex::model
