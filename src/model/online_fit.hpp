// Online stage estimates closing the loop from executed stage times back
// into the Eq. (1) cost model: a recursive least-squares fit over Eq. (1)'s
// regressors streamed one observation at a time, per-basestation EWMA
// predictors of the executed turbo-iteration count, and NaN-proof EWMA
// duration trackers. OnlineEstimators bundles them into the one
// stage-estimate state both substrates keep: the virtual-time sim builds one
// per adaptive run and feeds it exact stage costs, the real-thread runtime
// keeps one per run, seeded from its configured estimates, and feeds it
// wall-clock measurements. refine_decode turns a caller's fit-free decode
// estimate into what the shared admission rule reads; until the fit has
// warmed up every prediction falls back to the caller's figure, so an empty
// fit never changes a decision.
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
/// migration chunks can divide by it safely. A positive `seed` starts the
/// value there, so the first sample moves it by `alpha` like every later
/// one; without a seed the tracker is empty until its first sample, which
/// replaces the value.
class DurationEwma {
 public:
  explicit DurationEwma(double alpha = 0.25, Duration seed = 0)
      : alpha_(alpha),
        value_(static_cast<double>(seed)),
        has_value_(seed > 0) {}

  void observe(Duration sample);
  /// EWMA value once seeded or sampled, else `fallback`; >= 1 ns.
  Duration value_or(Duration fallback) const;
  std::size_t samples() const { return samples_; }

 private:
  double alpha_;
  double value_;
  bool has_value_;
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

/// One duration per estimated stage quantity: the seeds of
/// OnlineEstimators' trackers, and the runtime's reading of them. A
/// positive seed starts its tracker there, so the first sample moves it a
/// quarter of the way like every later one (the runtime, seeded from its
/// configured estimates); zero leaves it empty until its first sample, with
/// the reader's fallback standing until then (the sim).
struct StageTimes {
  Duration fft_subtask = 0;
  Duration demod = 0;
  Duration decode_subtask = 0;
};

/// The one stage-estimate state of both substrates: the per-FFT-subtask,
/// demod and per-code-block decode duration trackers, and, consulted only
/// under adaptive estimation, the decode-stage Eq. (1) fit and one
/// iteration predictor per basestation. All observe/predict helpers resolve
/// the Eq. (1) regressors from (mcs, bs) via the PHY tables, so call sites
/// stay one-liners.
class OnlineEstimators {
 public:
  OnlineEstimators(unsigned num_antennas, unsigned num_prb,
                   unsigned num_basestations, unsigned max_iterations,
                   const StageTimes& seeds = {},
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
  /// Per-code-block decode time (Algorithm 1's decode t_p).
  Duration decode_subtask_or(Duration fallback) const {
    return decode_subtask_.value_or(fallback);
  }
  /// Per-FFT-subtask time.
  Duration fft_subtask_or(Duration fallback) const {
    return fft_subtask_.value_or(fallback);
  }
  /// Demod stage time.
  Duration demod_or(Duration fallback) const {
    return demod_.value_or(fallback);
  }

  // Observation side (fed after execution) -------------------------------
  /// Executed decode stage: total stage time, per-code-block time, and the
  /// iteration count the turbo loop actually ran.
  void observe_decode(unsigned bs, unsigned mcs, unsigned executed_iterations,
                      Duration decode_ns, Duration decode_subtask_ns);
  void observe_fft(Duration fft_subtask_ns) {
    fft_subtask_.observe(fft_subtask_ns);
  }
  void observe_demod(Duration demod_ns) { demod_.observe(demod_ns); }

  const Eq1OnlineFit& decode_fit() const { return fit_; }
  std::size_t decode_samples() const { return fit_.samples(); }

 private:
  unsigned antennas_;
  unsigned num_prb_;
  unsigned lm_;
  Eq1OnlineFit fit_;
  std::vector<IterationPredictor> per_bs_;
  DurationEwma decode_subtask_;
  DurationEwma fft_subtask_;
  DurationEwma demod_;
};

/// Eq. (1)'s decode cost as a line in the iteration count L, through its
/// L = 1 and L = Lm anchors. at() is the slope-first integer interpolation
/// the static task model has always used, so static decisions stay
/// bit-identical.
struct DecodeLine {
  Duration at_one = 0;  ///< decode estimate at L = 1.
  Duration at_lm = 0;   ///< decode estimate at L = Lm.
  Duration at(unsigned l, unsigned lm) const {
    if (lm <= 1) return at_lm;
    const Duration slope = (at_lm - at_one) / static_cast<Duration>(lm - 1);
    return at_one + static_cast<Duration>(l - 1) * slope;
  }
};

/// The decode inputs of the shared admission rule (sched::admit_decode)
/// besides the decode start and the deadline.
struct DecodeEstimate {
  Duration full = 0;     ///< full-quality estimate at `assumed` iterations.
  DecodeLine line;       ///< costs capped decodes (read under degradation).
  unsigned assumed = 0;  ///< turbo iterations `full` assumes.
};

/// Refines a caller's fit-free decode estimate `seed` with the online state
/// `fit`; a null `fit` (static estimation) returns `seed` unchanged.
/// Otherwise `assumed` becomes fit's iteration prediction for `bs`; `full`,
/// when `fit_full`, the Eq. (1) fit at those iterations (callers whose full
/// estimate is their own, like RT-OPEX's post-plan local worst case in the
/// sim, pass false); and, when `with_line`, the line through the fit at
/// L = 1 and L = Lm. Each falls back to seed's figure until the fit warms
/// up. Callers pass with_line = degradation enabled, the only case in which
/// admit_decode reads the line, so the fit is evaluated only when needed.
inline DecodeEstimate refine_decode(const DecodeEstimate& seed,
                                    const OnlineEstimators* fit, unsigned bs,
                                    unsigned mcs, unsigned lm, bool fit_full,
                                    bool with_line) {
  if (!fit) return seed;
  DecodeEstimate est = seed;
  est.assumed = fit->predict_iterations(bs);
  if (fit_full) est.full = fit->predict_decode_at(mcs, est.assumed, seed.full);
  if (with_line)
    est.line = {fit->predict_decode_at(mcs, 1, seed.line.at_one),
                fit->predict_decode_at(mcs, lm, seed.line.at_lm)};
  return est;
}

}  // namespace rtopex::model
