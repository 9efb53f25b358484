#include "phy/uplink_rx.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "phy/ofdm.hpp"
#include "phy/qpp_interleaver.hpp"
#include "phy/rate_match.hpp"
#include "phy/scrambler.hpp"

#if defined(RTOPEX_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#elif defined(RTOPEX_SIMD) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace rtopex::phy {
namespace {

/// Indices of the 12 data symbols (all except the two DMRS positions).
std::array<unsigned, 12> data_symbol_indices() {
  std::array<unsigned, 12> idx{};
  unsigned j = 0;
  for (unsigned s = 0; s < kSymbolsPerSubframe; ++s)
    if (s != kDmrsSymbol0 && s != kDmrsSymbol1) idx[j++] = s;
  return idx;
}

#if defined(RTOPEX_SIMD) && defined(__AVX2__)

/// MRC + equalization for 8 subcarriers per pass. Lane arithmetic mirrors
/// the scalar loop expression-for-expression (mul/add plus one IEEE divide
/// per output, no FMA), so the vector path is bit-identical to the scalar
/// tail — the same contract the demapper and turbo SIMD paths honor.
/// Returns the number of subcarriers handled; the caller finishes the tail.
std::size_t mrc_equalize_simd(const std::vector<IqVector>& channel_est,
                              const std::vector<IqVector>& grid,
                              unsigned symbol, unsigned n, float noise_var,
                              std::size_t nsc, Complex* eq_out,
                              float* noise_out) {
  const std::size_t blocks = nsc / 8;
  const __m256i vperm = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  const __m256 vfloor = _mm256_set1_ps(1e-12f);
  const __m256 vnoise = _mm256_set1_ps(noise_var);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    __m256 num_re = _mm256_setzero_ps();
    __m256 num_im = _mm256_setzero_ps();
    __m256 denom = _mm256_setzero_ps();
    for (unsigned a = 0; a < n; ++a) {
      const float* hp =
          reinterpret_cast<const float*>(channel_est[a].data()) + blk * 16;
      const float* yp = reinterpret_cast<const float*>(
                            grid[a * kSymbolsPerSubframe + symbol].data()) +
                        blk * 16;
      const __m256 h0 = _mm256_loadu_ps(hp);
      const __m256 h1 = _mm256_loadu_ps(hp + 8);
      const __m256 g0 = _mm256_loadu_ps(yp);
      const __m256 g1 = _mm256_loadu_ps(yp + 8);
      const __m256 hr =
          _mm256_permutevar8x32_ps(_mm256_shuffle_ps(h0, h1, 0x88), vperm);
      const __m256 hi =
          _mm256_permutevar8x32_ps(_mm256_shuffle_ps(h0, h1, 0xDD), vperm);
      const __m256 yr =
          _mm256_permutevar8x32_ps(_mm256_shuffle_ps(g0, g1, 0x88), vperm);
      const __m256 yi =
          _mm256_permutevar8x32_ps(_mm256_shuffle_ps(g0, g1, 0xDD), vperm);
      num_re = _mm256_add_ps(
          num_re,
          _mm256_add_ps(_mm256_mul_ps(hr, yr), _mm256_mul_ps(hi, yi)));
      num_im = _mm256_add_ps(
          num_im,
          _mm256_sub_ps(_mm256_mul_ps(hr, yi), _mm256_mul_ps(hi, yr)));
      denom = _mm256_add_ps(
          denom, _mm256_add_ps(_mm256_mul_ps(hr, hr), _mm256_mul_ps(hi, hi)));
    }
    denom = _mm256_max_ps(denom, vfloor);
    const __m256 eq_re = _mm256_div_ps(num_re, denom);
    const __m256 eq_im = _mm256_div_ps(num_im, denom);
    const __m256 ilo = _mm256_unpacklo_ps(eq_re, eq_im);
    const __m256 ihi = _mm256_unpackhi_ps(eq_re, eq_im);
    float* ep = reinterpret_cast<float*>(eq_out) + blk * 16;
    _mm256_storeu_ps(ep, _mm256_permute2f128_ps(ilo, ihi, 0x20));
    _mm256_storeu_ps(ep + 8, _mm256_permute2f128_ps(ilo, ihi, 0x31));
    _mm256_storeu_ps(noise_out + blk * 8, _mm256_div_ps(vnoise, denom));
  }
  return blocks * 8;
}

#elif defined(RTOPEX_SIMD) && defined(__ARM_NEON)

/// NEON analogue: 4 subcarriers per pass (vld2q/vst2q do the re/im
/// (de)interleave directly). Same expression schedule, hence bit-identical.
std::size_t mrc_equalize_simd(const std::vector<IqVector>& channel_est,
                              const std::vector<IqVector>& grid,
                              unsigned symbol, unsigned n, float noise_var,
                              std::size_t nsc, Complex* eq_out,
                              float* noise_out) {
  const std::size_t blocks = nsc / 4;
  const float32x4_t vfloor = vdupq_n_f32(1e-12f);
  const float32x4_t vnoise = vdupq_n_f32(noise_var);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    float32x4_t num_re = vdupq_n_f32(0.0f);
    float32x4_t num_im = vdupq_n_f32(0.0f);
    float32x4_t denom = vdupq_n_f32(0.0f);
    for (unsigned a = 0; a < n; ++a) {
      const float* hp =
          reinterpret_cast<const float*>(channel_est[a].data()) + blk * 8;
      const float* yp = reinterpret_cast<const float*>(
                            grid[a * kSymbolsPerSubframe + symbol].data()) +
                        blk * 8;
      const float32x4x2_t h = vld2q_f32(hp);
      const float32x4x2_t y = vld2q_f32(yp);
      num_re = vaddq_f32(num_re, vaddq_f32(vmulq_f32(h.val[0], y.val[0]),
                                           vmulq_f32(h.val[1], y.val[1])));
      num_im = vaddq_f32(num_im, vsubq_f32(vmulq_f32(h.val[0], y.val[1]),
                                           vmulq_f32(h.val[1], y.val[0])));
      denom = vaddq_f32(denom, vaddq_f32(vmulq_f32(h.val[0], h.val[0]),
                                         vmulq_f32(h.val[1], h.val[1])));
    }
    denom = vmaxq_f32(denom, vfloor);
    float32x4x2_t eq;
    eq.val[0] = vdivq_f32(num_re, denom);
    eq.val[1] = vdivq_f32(num_im, denom);
    vst2q_f32(reinterpret_cast<float*>(eq_out) + blk * 8, eq);
    vst1q_f32(noise_out + blk * 4, vdivq_f32(vnoise, denom));
  }
  return blocks * 4;
}

#endif

}  // namespace

/// Per-MCS decode context: segmentation layout plus the codec objects for
/// that block size, built once at processor construction.
struct McsContext {
  CodeBlockLayout layout;
  std::shared_ptr<QppInterleaver> interleaver;
  std::shared_ptr<TurboDecoder> decoder;
  std::shared_ptr<RateMatcher> matcher;
  std::vector<std::size_t> e_offsets;  ///< start of each block's LLR span.
};

struct UplinkRxProcessor::Impl {
  FftPlan fft;
  IqVector dmrs;
  std::array<unsigned, 12> data_symbols = data_symbol_indices();
  std::vector<McsContext> per_mcs;  ///< indexed by MCS.
  std::size_t max_blocks = 0;       ///< most code blocks of any MCS.

  explicit Impl(const UplinkConfig& config)
      : fft(config.bw_config().fft_size),
        dmrs(dmrs_sequence(config.num_subcarriers(), config.cell_id)) {}
};

UplinkRxProcessor::UplinkRxProcessor(const UplinkConfig& config)
    : config_(config), impl_(std::make_unique<Impl>(config)) {
  // Build per-MCS contexts, sharing codecs across MCS with equal block size.
  impl_->per_mcs.resize(kMaxMcs + 1);
  std::vector<std::pair<std::size_t, std::size_t>> built;  // (K, mcs index)
  for (unsigned mcs = 0; mcs <= kMaxMcs; ++mcs) {
    McsContext& ctx = impl_->per_mcs[mcs];
    ctx.layout = code_block_layout(config_, mcs);
    const std::size_t k = ctx.layout.block_size;
    const auto it = std::find_if(built.begin(), built.end(),
                                 [&](const auto& p) { return p.first == k; });
    if (it != built.end()) {
      const McsContext& src = impl_->per_mcs[it->second];
      ctx.interleaver = src.interleaver;
      ctx.decoder = src.decoder;
      ctx.matcher = src.matcher;
    } else {
      ctx.interleaver = std::make_shared<QppInterleaver>(k);
      ctx.decoder = std::make_shared<TurboDecoder>(*ctx.interleaver,
                                                   config_.max_iterations);
      ctx.matcher = std::make_shared<RateMatcher>(k);
      built.emplace_back(k, mcs);
    }
    impl_->max_blocks = std::max(impl_->max_blocks, ctx.layout.e_bits.size());
    ctx.e_offsets.resize(ctx.layout.e_bits.size());
    std::size_t off = 0;
    for (std::size_t b = 0; b < ctx.layout.e_bits.size(); ++b) {
      ctx.e_offsets[b] = off;
      off += ctx.layout.e_bits[b];
    }
  }
}

UplinkRxProcessor::~UplinkRxProcessor() = default;

UplinkRxProcessor::Job UplinkRxProcessor::make_job() const {
  Job job;
  const unsigned nsc = config_.num_subcarriers();
  const unsigned n = config_.num_antennas;
  job.grid.assign(static_cast<std::size_t>(n) * kSymbolsPerSubframe,
                  IqVector(nsc));
  job.channel_est.assign(n, IqVector(nsc));
  job.equalized.resize(static_cast<std::size_t>(nsc) * 12);
  job.post_eq_noise.resize(job.equalized.size());
  // Worst-case LLR buffer: 64QAM over all data REs.
  job.llrs.resize(job.equalized.size() * 6);
  job.cb_results.reserve(impl_->max_blocks);
  job.cb_spare.reserve(impl_->max_blocks);
  return job;
}

void UplinkRxProcessor::begin(Job& job,
                              std::span<const IqVector> antenna_samples,
                              unsigned mcs,
                              std::uint32_t subframe_index) const {
  if (mcs > kMaxMcs) throw std::out_of_range("begin: mcs > 27");
  if (antenna_samples.size() != config_.num_antennas)
    throw std::invalid_argument("begin: antenna count mismatch");
  const auto bw = config_.bw_config();
  const std::size_t expected =
      kSymbolsPerSubframe * (bw.cp_samples + bw.fft_size);
  job.mcs = mcs;
  job.subframe_index = subframe_index;
  job.iteration_cap = 0;
  for (const IqVector& samples : antenna_samples)
    if (samples.size() != expected)
      throw std::invalid_argument("begin: sample count mismatch");
  job.antenna_samples = antenna_samples;
  // Sized, not filled: the demod subtasks write every one of the
  // 12 * nsc * qm soft bits before anything reads them.
  job.llrs.resize(job.equalized.size() * modulation_order(mcs));
  // Reset per-block results without freeing their bit buffers: a reused job
  // must not reallocate here, whatever MCS it decoded before. Surplus
  // results move to cb_spare and come back in reverse, so each buffer
  // returns to its own block index. Each buffer is sized for its block
  // now, so the decode stage never allocates.
  const CodeBlockLayout& layout = impl_->per_mcs[mcs].layout;
  const std::size_t c = layout.e_bits.size();
  while (job.cb_results.size() > c) {
    job.cb_spare.push_back(std::move(job.cb_results.back()));
    job.cb_results.pop_back();
  }
  while (job.cb_results.size() < c) {
    if (job.cb_spare.empty()) {
      job.cb_results.emplace_back();
      continue;
    }
    job.cb_results.push_back(std::move(job.cb_spare.back()));
    job.cb_spare.pop_back();
  }
  for (auto& cb : job.cb_results) {
    cb.bits.clear();
    cb.bits.reserve(layout.block_size);
    cb.iterations = 0;
    cb.crc_ok = false;
  }
}

DecodeWorkspace& UplinkRxProcessor::thread_workspace() {
  thread_local DecodeWorkspace ws;
  return ws;
}

std::size_t UplinkRxProcessor::fft_subtask_count() const {
  return static_cast<std::size_t>(config_.num_antennas) * kSymbolsPerSubframe;
}

void UplinkRxProcessor::run_fft_subtask(Job& job, std::size_t index) const {
  run_fft_subtask(job, index, thread_workspace());
}

void UplinkRxProcessor::run_fft_subtask(Job& job, std::size_t index,
                                        DecodeWorkspace& ws) const {
  const auto bw = config_.bw_config();
  const std::size_t antenna = index / kSymbolsPerSubframe;
  const std::size_t symbol = index % kSymbolsPerSubframe;
  if (antenna >= config_.num_antennas)
    throw std::out_of_range("run_fft_subtask: bad index");
  const std::size_t sym_len = bw.cp_samples + bw.fft_size;
  const std::span<const Complex> samples(
      job.antenna_samples[antenna].data() + symbol * sym_len, sym_len);
  // The grid cell is pre-sized to nsc by make_job; the SoA FFT runs in the
  // workspace's split buffers.
  ofdm_demodulate_into(impl_->fft, samples, bw.cp_samples,
                       job.grid[antenna * kSymbolsPerSubframe + symbol], ws);
}

void UplinkRxProcessor::demod_prepare(Job& job) const {
  const unsigned nsc = config_.num_subcarriers();
  const unsigned n = config_.num_antennas;
  // LS channel estimate per antenna, averaged over the two DMRS symbols;
  // the half-difference of the two estimates gives the noise power.
  double noise_acc = 0.0;
  std::size_t noise_cnt = 0;
  for (unsigned a = 0; a < n; ++a) {
    const IqVector& y0 = job.grid[a * kSymbolsPerSubframe + kDmrsSymbol0];
    const IqVector& y1 = job.grid[a * kSymbolsPerSubframe + kDmrsSymbol1];
    IqVector& h = job.channel_est[a];
    for (unsigned k = 0; k < nsc; ++k) {
      // DMRS has unit magnitude, so dividing is multiplying by conj.
      // Explicit float math (h = y * conj(p)) to avoid __mulsc3 per RE.
      const float pr = impl_->dmrs[k].real();
      const float pi = impl_->dmrs[k].imag();
      const float h0r = y0[k].real() * pr + y0[k].imag() * pi;
      const float h0i = y0[k].imag() * pr - y0[k].real() * pi;
      const float h1r = y1[k].real() * pr + y1[k].imag() * pi;
      const float h1i = y1[k].imag() * pr - y1[k].real() * pi;
      h[k] = {0.5f * (h0r + h1r), 0.5f * (h0i + h1i)};
      const float dr = h0r - h1r;
      const float di = h0i - h1i;
      noise_acc += 0.5 * (dr * dr + di * di);
      ++noise_cnt;
    }
  }
  job.noise_var =
      static_cast<float>(noise_acc / static_cast<double>(noise_cnt));
  job.noise_var = std::max(job.noise_var, 1e-12f);
}

void UplinkRxProcessor::run_demod_subtask(Job& job, std::size_t index) const {
  if (index >= demod_subtask_count())
    throw std::out_of_range("run_demod_subtask: bad index");
  const unsigned nsc = config_.num_subcarriers();
  const unsigned n = config_.num_antennas;
  const unsigned symbol = impl_->data_symbols[index];
  const unsigned qm = modulation_order(job.mcs);

  // MRC across antennas per subcarrier. Explicit float math: conj(h) * y
  // through std::complex would emit a __mulsc3 library call per RE.
  const std::size_t out_base = index * nsc;
  unsigned k_first = 0;
#if defined(RTOPEX_SIMD) && (defined(__AVX2__) || defined(__ARM_NEON))
  k_first = static_cast<unsigned>(mrc_equalize_simd(
      job.channel_est, job.grid, symbol, n, job.noise_var, nsc,
      job.equalized.data() + out_base, job.post_eq_noise.data() + out_base));
#endif
  for (unsigned k = k_first; k < nsc; ++k) {
    float num_re = 0.0f;
    float num_im = 0.0f;
    float denom = 0.0f;
    for (unsigned a = 0; a < n; ++a) {
      const Complex h = job.channel_est[a][k];
      const Complex y = job.grid[a * kSymbolsPerSubframe + symbol][k];
      num_re += h.real() * y.real() + h.imag() * y.imag();
      num_im += h.real() * y.imag() - h.imag() * y.real();
      denom += h.real() * h.real() + h.imag() * h.imag();
    }
    denom = std::max(denom, 1e-12f);
    job.equalized[out_base + k] = {num_re / denom, num_im / denom};
    job.post_eq_noise[out_base + k] = job.noise_var / denom;
  }

  // Demap this symbol's REs straight into the right LLR slice.
  const std::span<const Complex> eq(job.equalized.data() + out_base, nsc);
  const std::span<const float> nv(job.post_eq_noise.data() + out_base, nsc);
  demodulate_into(
      eq, nv, qm,
      std::span<float>(job.llrs.data() + out_base * qm,
                       static_cast<std::size_t>(nsc) * qm));
}

void UplinkRxProcessor::decode_prepare(Job& job) const {
  decode_prepare(job, thread_workspace());
}

void UplinkRxProcessor::decode_prepare(Job& job, DecodeWorkspace& ws) const {
  // c_init cycles through at most 10 values per basestation (subframe mod
  // 10), so a steady-state worker's whole rotation stays resident in the
  // workspace's bounded LRU cache; misses regenerate into a recycled
  // entry's grow-only buffer. Either way nothing allocates in steady state.
  descramble_llrs_cached(job.llrs,
                         scrambling_init(config_.rnti, job.subframe_index,
                                         config_.cell_id),
                         ws);
}

std::size_t UplinkRxProcessor::decode_subtask_count(const Job& job) const {
  return impl_->per_mcs[job.mcs].layout.e_bits.size();
}

void UplinkRxProcessor::run_decode_subtask(Job& job, std::size_t index) const {
  run_decode_subtask(job, index, thread_workspace());
}

void UplinkRxProcessor::run_decode_subtask(Job& job, std::size_t index,
                                           DecodeWorkspace& ws) const {
  const McsContext& ctx = impl_->per_mcs[job.mcs];
  if (index >= ctx.layout.e_bits.size())
    throw std::out_of_range("run_decode_subtask: bad index");
  const std::size_t c = ctx.layout.e_bits.size();
  const std::size_t k = ctx.layout.block_size;
  const std::size_t kd = k + 4;

  const std::span<const float> cb_llrs(job.llrs.data() + ctx.e_offsets[index],
                                       ctx.layout.e_bits[index]);
  grow_buffer(ws.dm_systematic, kd);
  grow_buffer(ws.dm_parity1, kd);
  grow_buffer(ws.dm_parity2, kd);
  const std::span<float> sys(ws.dm_systematic.data(), kd);
  const std::span<float> par1(ws.dm_parity1.data(), kd);
  const std::span<float> par2(ws.dm_parity2.data(), kd);
  ctx.matcher->dematch_into(cb_llrs, 0, sys, par1, par2);

  // Early-termination CRC: per-block CRC24B when segmented, else the
  // transport block's CRC24A (which then covers filler-free payload).
  // Captures one pointer + one size_t so the std::function stays within
  // libstdc++'s small-object buffer — no heap allocation.
  const McsContext* ctx_ptr = &ctx;
  const auto crc_check = [ctx_ptr, c](std::span<const std::uint8_t> bits) {
    if (c > 1) return check_crc24(bits, CrcKind::kB);
    // Single block: strip filler before checking CRC24A.
    const auto payload = bits.subspan(ctx_ptr->layout.filler_bits);
    return check_crc24(payload, CrcKind::kA);
  };

  ctx.decoder->decode_into(sys, par1, par2, ws, crc_check, job.iteration_cap);
  auto& out = job.cb_results[index];
  out.bits.assign(ws.bits.begin(),
                  ws.bits.begin() + static_cast<std::ptrdiff_t>(k));
  out.iterations = ws.iterations;
  out.crc_ok = ws.early_terminated ||
               crc_check(std::span<const std::uint8_t>(ws.bits.data(), k));
}

void UplinkRxProcessor::run_decode_batch(Job& job, DecodeWorkspace& ws) const {
  Job* jobs[1] = {&job};
  run_decode_batch(std::span<Job* const>(jobs, 1), ws);
}

void UplinkRxProcessor::run_decode_batch(std::span<Job* const> jobs,
                                         DecodeWorkspace& ws) const {
  constexpr std::size_t kMaxJobs = kMaxBatchJobs;
  constexpr std::size_t kL = kTurboBatchLanes;
  constexpr std::size_t kScalarMaxLanes = 3;
  if (jobs.empty() || jobs.size() > kMaxJobs)
    throw std::invalid_argument("run_decode_batch: 1..16 jobs required");

  // Distinct (block size, iteration cap) keys in first-appearance order.
  // Lanes of one batch must share the decoder (same K / interleaver) and
  // the degraded-mode cap, so blocks are grouped under these keys; jobs at
  // different MCS with equal K batch together (their codecs are shared).
  struct GroupKey {
    std::size_t block_size;
    unsigned cap;
  };
  std::array<GroupKey, kMaxJobs> keys;
  std::size_t num_keys = 0;
  for (const Job* job : jobs) {
    const GroupKey key{impl_->per_mcs[job->mcs].layout.block_size,
                       job->iteration_cap};
    bool found = false;
    for (std::size_t i = 0; i < num_keys; ++i)
      found = found || (keys[i].block_size == key.block_size &&
                        keys[i].cap == key.cap);
    if (!found) keys[num_keys++] = key;
  }

  for (std::size_t ki = 0; ki < num_keys; ++ki) {
    const GroupKey key = keys[ki];
    const std::size_t k = key.block_size;
    const std::size_t kd = k + 4;

    // Gather this key's (job, block) pairs; grow-only workspace scratch.
    ws.bat_group.clear();
    const TurboDecoder* decoder = nullptr;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const Job& job = *jobs[j];
      const McsContext& ctx = impl_->per_mcs[job.mcs];
      if (ctx.layout.block_size != k || job.iteration_cap != key.cap)
        continue;
      decoder = ctx.decoder.get();
      for (std::size_t blk = 0; blk < ctx.layout.e_bits.size(); ++blk)
        ws.bat_group.push_back(
            static_cast<std::uint32_t>((j << 16) | blk));
    }

    for (std::size_t g0 = 0; g0 < ws.bat_group.size(); g0 += kL) {
      const std::size_t lanes_n = std::min(kL, ws.bat_group.size() - g0);
      // The SoA sweep costs a full 8-lane pass regardless of fill (ragged
      // lanes are padded): about 3.3 scalar blocks' worth (Release + SIMD,
      // BM_TurboDecodeBatch/6144/1 over BM_TurboDecode/6144/1 in one
      // process, median of nine runs 3.25, quartiles 3.21-3.34). Groups
      // of at most kScalarMaxLanes blocks are cheaper through the scalar
      // decoder, which is bit-identical (the batch differential tests
      // assert exactly that), so this is a pure cost decision.
      if (lanes_n <= kScalarMaxLanes) {
        for (std::size_t b = 0; b < lanes_n; ++b) {
          const std::uint32_t pair = ws.bat_group[g0 + b];
          run_decode_subtask(*jobs[pair >> 16], pair & 0xFFFF, ws);
        }
        continue;
      }
      // All lanes' streams are dematched at once, straight into the
      // decoder's lane-major channel rows (lane b in column b; ragged lanes
      // hold zeros). Blocks of equal K share one rate matcher.
      const std::size_t block = kd * kL;
      grow_buffer(ws.bat_rows, 3 * block);
      float* const rows[3] = {ws.bat_rows.data(), ws.bat_rows.data() + block,
                              ws.bat_rows.data() + 2 * block};
      std::array<std::span<const float>, kL> lane_llrs{};
      const RateMatcher* matcher = nullptr;
      // Per-lane CRC identity: one pointer capture keeps the std::function
      // within libstdc++'s small-object buffer — no heap allocation.
      struct LaneCrc {
        bool segmented;
        std::size_t filler;
      };
      std::array<LaneCrc, kL> lane_crc{};
      for (std::size_t b = 0; b < lanes_n; ++b) {
        const std::uint32_t pair = ws.bat_group[g0 + b];
        const Job& job = *jobs[pair >> 16];
        const std::size_t blk = pair & 0xFFFF;
        const McsContext& ctx = impl_->per_mcs[job.mcs];
        lane_llrs[b] = std::span<const float>(
            job.llrs.data() + ctx.e_offsets[blk], ctx.layout.e_bits[blk]);
        matcher = ctx.matcher.get();
        lane_crc[b] = {ctx.layout.e_bits.size() > 1, ctx.layout.filler_bits};
      }
      matcher->dematch_rows(
          std::span<const std::span<const float>>(lane_llrs.data(), lanes_n),
          0, rows[0], rows[1], rows[2]);
      const LaneCrc* lc = lane_crc.data();
      const std::function<bool(std::size_t, std::span<const std::uint8_t>)>
          crc_check = [lc](std::size_t lane,
                           std::span<const std::uint8_t> bits) {
            if (lc[lane].segmented) return check_crc24(bits, CrcKind::kB);
            return check_crc24(bits.subspan(lc[lane].filler), CrcKind::kA);
          };
      decoder->decode_batch_into(TurboBatchRows{rows[0], rows[1], rows[2]},
                                 lanes_n, ws, crc_check, key.cap);
      for (std::size_t b = 0; b < lanes_n; ++b) {
        const std::uint32_t pair = ws.bat_group[g0 + b];
        Job& job = *jobs[pair >> 16];
        const std::size_t blk = pair & 0xFFFF;
        const std::uint8_t* bits = ws.bat_bits.data() + b * k;
        auto& out = job.cb_results[blk];
        out.bits.assign(bits, bits + k);
        out.iterations = ws.bat_iterations[b];
        out.crc_ok =
            ws.bat_early_terminated[b] ||
            crc_check(b, std::span<const std::uint8_t>(bits, k));
      }
    }
  }
}

unsigned UplinkRxProcessor::largest_block_mcs(
    std::span<const unsigned> mcs_set) const {
  if (mcs_set.empty())
    throw std::invalid_argument("largest_block_mcs: empty MCS set");
  unsigned best = mcs_set.front();
  for (const unsigned mcs : mcs_set) {
    if (mcs > kMaxMcs) throw std::out_of_range("largest_block_mcs: mcs > 27");
    if (impl_->per_mcs[mcs].layout.block_size >
        impl_->per_mcs[best].layout.block_size)
      best = mcs;
  }
  return best;
}

void UplinkRxProcessor::prewarm(DecodeWorkspace& ws,
                                std::span<const IqVector> antenna_samples,
                                unsigned mcs,
                                std::uint32_t subframe_index) const {
  Job job = make_job();
  UplinkRxResult result;
  begin(job, antenna_samples, mcs, subframe_index);
  for (std::size_t i = 0; i < fft_subtask_count(); ++i)
    run_fft_subtask(job, i, ws);
  demod_prepare(job);
  for (std::size_t i = 0; i < demod_subtask_count(); ++i)
    run_demod_subtask(job, i);
  decode_prepare(job, ws);
  // Enough copies of the job for one full 8-lane group at this K (the
  // copies' results overwrite each other); a remainder group, if any, goes
  // through the scalar decoder, and so does the explicit subtask below.
  const std::size_t c = decode_subtask_count(job);
  std::array<Job*, kTurboBatchLanes> copies;
  copies.fill(&job);
  run_decode_batch(std::span<Job* const>(copies.data(),
                                         (kTurboBatchLanes + c - 1) / c),
                   ws);
  run_decode_subtask(job, 0, ws);
  finalize_into(job, ws, result);
  ws.bat_group.reserve(kMaxBatchJobs * impl_->max_blocks);
}

UplinkRxResult UplinkRxProcessor::finalize(Job& job) const {
  UplinkRxResult result;
  finalize_into(job, thread_workspace(), result);
  return result;
}

void UplinkRxProcessor::finalize_into(Job& job, DecodeWorkspace& ws,
                                      UplinkRxResult& result) const {
  const McsContext& ctx = impl_->per_mcs[job.mcs];
  const std::size_t c = job.cb_results.size();
  result.cb_crc_ok.clear();
  result.payload.clear();
  unsigned iter_max = 0;
  double iter_sum = 0.0;
  for (const auto& cb : job.cb_results) {
    result.cb_crc_ok.push_back(cb.crc_ok);
    iter_max = std::max(iter_max, cb.iterations);
    iter_sum += cb.iterations;
  }
  result.iterations = iter_max;
  result.mean_iterations = iter_sum / static_cast<double>(c);

  // Desegmentation inlined into the workspace buffer: strip block 0's
  // filler and (when segmented) each block's CRC24B, concatenate. The
  // CRC24B results were already computed by the decode subtasks, so unlike
  // desegment_transport_block no recheck happens here.
  ws.tb_with_crc.clear();
  for (std::size_t blk = 0; blk < c; ++blk) {
    const BitVector& bits = job.cb_results[blk].bits;
    const std::size_t begin = blk == 0 ? ctx.layout.filler_bits : 0;
    const std::size_t end = bits.size() - (c > 1 ? kCrcLength : 0);
    ws.tb_with_crc.insert(ws.tb_with_crc.end(),
                          bits.begin() + static_cast<std::ptrdiff_t>(begin),
                          bits.begin() + static_cast<std::ptrdiff_t>(end));
  }
  if (ws.tb_with_crc.size() != ctx.layout.payload_bits)
    throw std::logic_error("finalize: size mismatch with payload_bits");
  result.crc_ok = check_crc24(ws.tb_with_crc, CrcKind::kA);
  if (result.crc_ok) {
    result.payload.assign(ws.tb_with_crc.begin(),
                          ws.tb_with_crc.end() - kCrcLength);
  }
}

UplinkRxResult UplinkRxProcessor::process(
    std::span<const IqVector> antenna_samples, unsigned mcs,
    std::uint32_t subframe_index) const {
  Job job = make_job();
  begin(job, antenna_samples, mcs, subframe_index);
  for (std::size_t i = 0; i < fft_subtask_count(); ++i)
    run_fft_subtask(job, i);
  demod_prepare(job);
  for (std::size_t i = 0; i < demod_subtask_count(); ++i)
    run_demod_subtask(job, i);
  decode_prepare(job);
  for (std::size_t i = 0; i < decode_subtask_count(job); ++i)
    run_decode_subtask(job, i);
  return finalize(job);
}

}  // namespace rtopex::phy
