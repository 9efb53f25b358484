// Power-of-two radix-2 FFT with precomputed twiddles.
//
// The OFDM (de)modulation runs one transform per OFDM symbol per antenna —
// the "FFT task" of the paper, parallelizable across its 14 * N subtasks
// (§2.2). A plan is immutable after construction and safe to share across
// threads executing transforms on distinct buffers.
//
// Two execution paths share the plan's tables:
//   * forward/inverse — structure-of-arrays (split re/im) transform. The
//     split layout gives contiguous unit-stride butterflies per stage that
//     autovectorize, and avoids libstdc++'s __mulsc3 complex multiply. The
//     bit-reversal permutation runs as a list of swap pairs built at plan
//     construction (no data-dependent branch). The three narrow stages
//     (half = 1, 2, 4), too short for the wide butterflies, run fused on
//     8-point blocks held in registers; the stages with half >= 8 run
//     unit-stride over contiguous half-spans.
//     With -DRTOPEX_SIMD the fused blocks and the wide stages use explicit
//     8-wide AVX2 kernels (the wide stages 4-wide NEON on aarch64).
//   * transform — the retained scalar interleaved fallback, kept as the
//     in-place reference for the differential tests.
// Conjugation for the inverse direction is hoisted into a second twiddle
// table at plan construction; neither path branches per butterfly. Every
// path computes each butterfly's products and sums in the same mul/sub/add
// order from the same tables, so the SoA, SIMD and reference transforms
// agree bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "phy/modulation.hpp"

namespace rtopex::phy {

class FftPlan {
 public:
  /// `size` must be a power of two >= 2.
  explicit FftPlan(std::size_t size);

  std::size_t size() const { return size_; }

  /// In-place forward DFT (no normalization).
  void forward(std::span<Complex> data) const;

  /// In-place inverse DFT, normalized by 1/N (so inverse(forward(x)) == x).
  void inverse(std::span<Complex> data) const;

  /// Split re/im in-place transforms. Both spans must be `size()` long;
  /// the inverse variant normalizes by 1/N. This is the zero-allocation
  /// entry point: callers own the split buffers (see DecodeWorkspace).
  void forward_soa(std::span<float> re, std::span<float> im) const;
  void inverse_soa(std::span<float> re, std::span<float> im) const;

  /// Retained scalar interleaved fallback (and differential reference):
  /// same radix-2 schedule as the SoA path, one butterfly at a time.
  void transform(std::span<Complex> data, bool invert) const;

 private:
  void transform_soa(float* re, float* im, bool invert) const;

  std::size_t size_;
  /// Per-stage twiddle tables, stage with half-length h at offset h - 1
  /// (h = 1, 2, 4, ...): tw_re_[h-1+k] + i*tw_im_fwd_[h-1+k] = e^{-iπk/h}.
  /// The inverse table carries the conjugate so no path branches on
  /// direction per butterfly.
  std::vector<float> tw_re_;
  std::vector<float> tw_im_fwd_;
  std::vector<float> tw_im_inv_;
  std::vector<std::uint32_t> reversal_;  ///< bit-reversal permutation.
  /// The (i, reversal_[i]) pairs with i < reversal_[i]: the SoA path's
  /// permutation as a branch-free list of swaps.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
};

/// O(N^2) reference DFT for testing.
IqVector reference_dft(std::span<const Complex> data, bool invert);

}  // namespace rtopex::phy
