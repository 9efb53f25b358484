#include "phy/fft.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#if defined(RTOPEX_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#elif defined(RTOPEX_SIMD) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace rtopex::phy {

namespace {

// One stage's butterflies over a contiguous half-span. The SIMD lanes use
// mul/add (not FMA) so the wide path rounds identically to the scalar tail
// and the scalar-vs-SIMD differential can demand exact equality.
inline void butterfly_span(float* re0, float* im0, float* re1, float* im1,
                           const float* twr, const float* twi,
                           std::size_t half) {
  std::size_t k = 0;
#if defined(RTOPEX_SIMD) && defined(__AVX2__)
  for (; k + 8 <= half; k += 8) {
    const __m256 wr = _mm256_loadu_ps(twr + k);
    const __m256 wi = _mm256_loadu_ps(twi + k);
    const __m256 xr = _mm256_loadu_ps(re1 + k);
    const __m256 xi = _mm256_loadu_ps(im1 + k);
    const __m256 vr = _mm256_sub_ps(_mm256_mul_ps(xr, wr),
                                    _mm256_mul_ps(xi, wi));
    const __m256 vi = _mm256_add_ps(_mm256_mul_ps(xr, wi),
                                    _mm256_mul_ps(xi, wr));
    const __m256 ur = _mm256_loadu_ps(re0 + k);
    const __m256 ui = _mm256_loadu_ps(im0 + k);
    _mm256_storeu_ps(re0 + k, _mm256_add_ps(ur, vr));
    _mm256_storeu_ps(im0 + k, _mm256_add_ps(ui, vi));
    _mm256_storeu_ps(re1 + k, _mm256_sub_ps(ur, vr));
    _mm256_storeu_ps(im1 + k, _mm256_sub_ps(ui, vi));
  }
#elif defined(RTOPEX_SIMD) && defined(__ARM_NEON)
  for (; k + 4 <= half; k += 4) {
    const float32x4_t wr = vld1q_f32(twr + k);
    const float32x4_t wi = vld1q_f32(twi + k);
    const float32x4_t xr = vld1q_f32(re1 + k);
    const float32x4_t xi = vld1q_f32(im1 + k);
    const float32x4_t vr = vsubq_f32(vmulq_f32(xr, wr), vmulq_f32(xi, wi));
    const float32x4_t vi = vaddq_f32(vmulq_f32(xr, wi), vmulq_f32(xi, wr));
    const float32x4_t ur = vld1q_f32(re0 + k);
    const float32x4_t ui = vld1q_f32(im0 + k);
    vst1q_f32(re0 + k, vaddq_f32(ur, vr));
    vst1q_f32(im0 + k, vaddq_f32(ui, vi));
    vst1q_f32(re1 + k, vsubq_f32(ur, vr));
    vst1q_f32(im1 + k, vsubq_f32(ui, vi));
  }
#endif
  for (; k < half; ++k) {
    const float wr = twr[k];
    const float wi = twi[k];
    const float xr = re1[k];
    const float xi = im1[k];
    const float vr = xr * wr - xi * wi;
    const float vi = xr * wi + xi * wr;
    const float ur = re0[k];
    const float ui = im0[k];
    re0[k] = ur + vr;
    im0[k] = ui + vi;
    re1[k] = ur - vr;
    im1[k] = ui - vi;
  }
}

#if defined(RTOPEX_SIMD) && defined(__AVX2__)
// One in-register stage of an 8-point block: u/x hold each butterfly's two
// inputs duplicated across both of the pair's lanes, so every lane computes
// the butterfly's products exactly as the scalar code does; the blend keeps
// u + v in the first element's lane and u - v in the second's (kXLanes).
template <int kXLanes>
inline void block_stage(__m256& r, __m256& m, __m256 ur, __m256 ui, __m256 xr,
                        __m256 xi, __m256 wr, __m256 wi) {
  const __m256 vr = _mm256_sub_ps(_mm256_mul_ps(xr, wr), _mm256_mul_ps(xi, wi));
  const __m256 vi = _mm256_add_ps(_mm256_mul_ps(xr, wi), _mm256_mul_ps(xi, wr));
  r = _mm256_blend_ps(_mm256_add_ps(ur, vr), _mm256_sub_ps(ur, vr), kXLanes);
  m = _mm256_blend_ps(_mm256_add_ps(ui, vi), _mm256_sub_ps(ui, vi), kXLanes);
}
#endif

// Stages half = 1, 2 and 4 on every 8-point block of an n-point array, one
// block at a time in registers: the twelve butterflies per block that
// butterfly_span would run as twelve calls, with the same twiddle products in
// the same mul/sub/add order (twr/twi are the first seven table entries:
// stage h reads [h - 1, 2h - 1)). The AVX2 form runs each stage as one
// vector per component; it measured about 1.4x faster than the portable
// block on BM_FftSoa/1024 and BM_UplinkStageFft/27 (EXPERIMENTS.md).
void first_three_stages(float* re, float* im, std::size_t n, const float* twr,
                        const float* twi) {
#if defined(RTOPEX_SIMD) && defined(__AVX2__)
  const __m256 w1r = _mm256_set1_ps(twr[0]);
  const __m256 w1i = _mm256_set1_ps(twi[0]);
  const __m256 w2r = _mm256_setr_ps(twr[1], twr[2], twr[1], twr[2], twr[1],
                                    twr[2], twr[1], twr[2]);
  const __m256 w2i = _mm256_setr_ps(twi[1], twi[2], twi[1], twi[2], twi[1],
                                    twi[2], twi[1], twi[2]);
  const __m256 w4r = _mm256_setr_ps(twr[3], twr[4], twr[5], twr[6], twr[3],
                                    twr[4], twr[5], twr[6]);
  const __m256 w4i = _mm256_setr_ps(twi[3], twi[4], twi[5], twi[6], twi[3],
                                    twi[4], twi[5], twi[6]);
  for (std::size_t s = 0; s < n; s += 8) {
    __m256 r = _mm256_loadu_ps(re + s);
    __m256 m = _mm256_loadu_ps(im + s);
    // half = 1: pairs (0,1) (2,3) (4,5) (6,7).
    block_stage<0xAA>(r, m, _mm256_moveldup_ps(r), _mm256_moveldup_ps(m),
                      _mm256_movehdup_ps(r), _mm256_movehdup_ps(m), w1r, w1i);
    // half = 2: pairs (0,2) (1,3) (4,6) (5,7).
    block_stage<0xCC>(r, m, _mm256_shuffle_ps(r, r, 0x44),
                      _mm256_shuffle_ps(m, m, 0x44),
                      _mm256_shuffle_ps(r, r, 0xEE),
                      _mm256_shuffle_ps(m, m, 0xEE), w2r, w2i);
    // half = 4: pairs (0,4) (1,5) (2,6) (3,7).
    block_stage<0xF0>(r, m, _mm256_permute2f128_ps(r, r, 0x00),
                      _mm256_permute2f128_ps(m, m, 0x00),
                      _mm256_permute2f128_ps(r, r, 0x11),
                      _mm256_permute2f128_ps(m, m, 0x11), w4r, w4i);
    _mm256_storeu_ps(re + s, r);
    _mm256_storeu_ps(im + s, m);
  }
#else
  for (std::size_t s = 0; s < n; s += 8) {
    float r[8], m[8];
    for (int j = 0; j < 8; ++j) {
      r[j] = re[s + j];
      m[j] = im[s + j];
    }
    const auto bf = [&](int a, int b, int w) {
      const float wr = twr[w];
      const float wi = twi[w];
      const float xr = r[b];
      const float xi = m[b];
      const float vr = xr * wr - xi * wi;
      const float vi = xr * wi + xi * wr;
      const float ur = r[a];
      const float ui = m[a];
      r[a] = ur + vr;
      m[a] = ui + vi;
      r[b] = ur - vr;
      m[b] = ui - vi;
    };
    bf(0, 1, 0), bf(2, 3, 0), bf(4, 5, 0), bf(6, 7, 0);
    bf(0, 2, 1), bf(1, 3, 2), bf(4, 6, 1), bf(5, 7, 2);
    bf(0, 4, 3), bf(1, 5, 4), bf(2, 6, 5), bf(3, 7, 6);
    for (int j = 0; j < 8; ++j) {
      re[s + j] = r[j];
      im[s + j] = m[j];
    }
  }
#endif
}

}  // namespace

FftPlan::FftPlan(std::size_t size) : size_(size) {
  if (size < 2 || (size & (size - 1)) != 0)
    throw std::invalid_argument("FftPlan: size must be a power of two >= 2");
  // Per-stage tables: stage with half-length h occupies [h - 1, 2h - 1),
  // total N - 1 entries, each stage's twiddles contiguous and unit-stride.
  tw_re_.resize(size - 1);
  tw_im_fwd_.resize(size - 1);
  tw_im_inv_.resize(size - 1);
  for (std::size_t half = 1; half < size; half <<= 1) {
    for (std::size_t k = 0; k < half; ++k) {
      const double angle =
          -M_PI * static_cast<double>(k) / static_cast<double>(half);
      const std::size_t at = (half - 1) + k;
      tw_re_[at] = static_cast<float>(std::cos(angle));
      tw_im_fwd_[at] = static_cast<float>(std::sin(angle));
      tw_im_inv_[at] = -tw_im_fwd_[at];
    }
  }
  reversal_.resize(size);
  unsigned bits = 0;
  while ((1u << bits) < size) ++bits;
  for (std::size_t i = 0; i < size; ++i) {
    std::uint32_t r = 0;
    for (unsigned b = 0; b < bits; ++b)
      if (i & (1u << b)) r |= 1u << (bits - 1 - b);
    reversal_[i] = r;
    if (i < r) swaps_.push_back({static_cast<std::uint32_t>(i), r});
  }
}

void FftPlan::transform_soa(float* re, float* im, bool invert) const {
  for (const auto& [i, j] : swaps_) {
    std::swap(re[i], re[j]);
    std::swap(im[i], im[j]);
  }
  const float* twi_all = invert ? tw_im_inv_.data() : tw_im_fwd_.data();
  std::size_t half = 1;
  if (size_ >= 8) {
    first_three_stages(re, im, size_, tw_re_.data(), twi_all);
    half = 8;
  }
  for (; half < size_; half <<= 1) {
    const float* twr = tw_re_.data() + (half - 1);
    const float* twi = twi_all + (half - 1);
    for (std::size_t start = 0; start < size_; start += 2 * half)
      butterfly_span(re + start, im + start, re + start + half,
                     im + start + half, twr, twi, half);
  }
}

void FftPlan::forward_soa(std::span<float> re, std::span<float> im) const {
  if (re.size() != size_ || im.size() != size_)
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  transform_soa(re.data(), im.data(), false);
}

void FftPlan::inverse_soa(std::span<float> re, std::span<float> im) const {
  if (re.size() != size_ || im.size() != size_)
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  transform_soa(re.data(), im.data(), true);
  const float inv = 1.0f / static_cast<float>(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    re[i] *= inv;
    im[i] *= inv;
  }
}

namespace {
// Split scratch for the interleaved entry points. Thread-local so a plan
// shared across worker threads stays safe; sized once per thread.
thread_local std::vector<float> t_fft_re;
thread_local std::vector<float> t_fft_im;
}  // namespace

void FftPlan::forward(std::span<Complex> data) const {
  if (data.size() != size_)
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  if (t_fft_re.size() < size_) {
    t_fft_re.resize(size_);
    t_fft_im.resize(size_);
  }
  float* re = t_fft_re.data();
  float* im = t_fft_im.data();
  for (std::size_t i = 0; i < size_; ++i) {
    re[i] = data[i].real();
    im[i] = data[i].imag();
  }
  transform_soa(re, im, false);
  for (std::size_t i = 0; i < size_; ++i) data[i] = {re[i], im[i]};
}

void FftPlan::inverse(std::span<Complex> data) const {
  if (data.size() != size_)
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  if (t_fft_re.size() < size_) {
    t_fft_re.resize(size_);
    t_fft_im.resize(size_);
  }
  float* re = t_fft_re.data();
  float* im = t_fft_im.data();
  for (std::size_t i = 0; i < size_; ++i) {
    re[i] = data[i].real();
    im[i] = data[i].imag();
  }
  transform_soa(re, im, true);
  const float inv = 1.0f / static_cast<float>(size_);
  for (std::size_t i = 0; i < size_; ++i)
    data[i] = {re[i] * inv, im[i] * inv};
}

void FftPlan::transform(std::span<Complex> data, bool invert) const {
  if (data.size() != size_)
    throw std::invalid_argument("FftPlan: buffer size mismatch");
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t j = reversal_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  const float* twi_all = invert ? tw_im_inv_.data() : tw_im_fwd_.data();
  for (std::size_t half = 1; half < size_; half <<= 1) {
    const float* twr = tw_re_.data() + (half - 1);
    const float* twi = twi_all + (half - 1);
    for (std::size_t start = 0; start < size_; start += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const float wr = twr[k];
        const float wi = twi[k];
        Complex& a = data[start + k];
        Complex& b = data[start + k + half];
        const float vr = b.real() * wr - b.imag() * wi;
        const float vi = b.real() * wi + b.imag() * wr;
        const float ur = a.real();
        const float ui = a.imag();
        a = {ur + vr, ui + vi};
        b = {ur - vr, ui - vi};
      }
    }
  }
  if (invert) {
    const float inv = 1.0f / static_cast<float>(size_);
    for (auto& x : data) x *= inv;
  }
}

IqVector reference_dft(std::span<const Complex> data, bool invert) {
  const std::size_t n = data.size();
  IqVector out(n);
  const double sign = invert ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * M_PI * static_cast<double>(k * t) /
                           static_cast<double>(n);
      acc += std::complex<double>(data[t]) *
             std::complex<double>(std::cos(angle), std::sin(angle));
    }
    if (invert) acc /= static_cast<double>(n);
    out[k] = {static_cast<float>(acc.real()), static_cast<float>(acc.imag())};
  }
  return out;
}

}  // namespace rtopex::phy
