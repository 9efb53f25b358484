// Differential tests for the vectorized PHY kernels: every optimized path
// (SoA/SIMD FFT, table CRC, flattened turbo SISO, unrolled demapper,
// table-walk dematcher, cached descrambler) is checked against the retained
// reference implementation. The turbo and FFT checks demand EXACT equality —
// the optimized kernels are written to round identically to the references
// (mul/add SIMD schedule, preserved association order), so any drift is a
// bug, not tolerance noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "phy/crc.hpp"
#include "phy/fft.hpp"
#include "phy/ofdm.hpp"
#include "phy/rate_match.hpp"
#include "phy/scrambler.hpp"
#include "phy/turbo.hpp"
#include "phy/uplink_rx.hpp"
#include "phy/uplink_tx.hpp"
#include "phy/workspace.hpp"

namespace rtopex::phy {
namespace {

IqVector random_iq(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  IqVector v(n);
  for (auto& x : v)
    x = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  return v;
}

BitVector random_bits(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVector bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  return bits;
}

LlrVector noisy_llrs(const BitVector& bits, double snr_db, Rng& rng) {
  const double sigma = std::sqrt(0.5 / std::pow(10.0, snr_db / 10.0));
  LlrVector llrs(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const double x = bits[i] ? -1.0 : 1.0;
    const double y = x + rng.normal(0.0, sigma);
    llrs[i] = static_cast<float>(2.0 * y / (sigma * sigma));
  }
  return llrs;
}

void expect_bit_identical(std::span<const Complex> got,
                          std::span<const Complex> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].real(), want[i].real()) << "re at " << i;
    EXPECT_EQ(got[i].imag(), want[i].imag()) << "im at " << i;
  }
}

// --- FFT -------------------------------------------------------------------

class FftKernelDifferentialTest : public ::testing::TestWithParam<std::size_t> {
};

// The SoA path (optionally SIMD) must round identically to the retained
// interleaved scalar transform: same tables, same schedule, mul/add only.
TEST_P(FftKernelDifferentialTest, ForwardSoaBitIdenticalToScalarTransform) {
  const std::size_t n = GetParam();
  const FftPlan plan(n);
  const IqVector input = random_iq(n, 7000 + n);

  IqVector scalar = input;
  plan.transform(scalar, /*invert=*/false);

  std::vector<float> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = input[i].real();
    im[i] = input[i].imag();
  }
  plan.forward_soa(re, im);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(re[i], scalar[i].real()) << "re at " << i;
    EXPECT_EQ(im[i], scalar[i].imag()) << "im at " << i;
  }

  IqVector interleaved = input;
  plan.forward(interleaved);
  expect_bit_identical(interleaved, scalar);
}

TEST_P(FftKernelDifferentialTest, InverseSoaBitIdenticalToScalarTransform) {
  const std::size_t n = GetParam();
  const FftPlan plan(n);
  const IqVector input = random_iq(n, 8000 + n);

  IqVector scalar = input;
  plan.transform(scalar, /*invert=*/true);

  std::vector<float> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = input[i].real();
    im[i] = input[i].imag();
  }
  plan.inverse_soa(re, im);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(re[i], scalar[i].real()) << "re at " << i;
    EXPECT_EQ(im[i], scalar[i].imag()) << "im at " << i;
  }

  IqVector interleaved = input;
  plan.inverse(interleaved);
  expect_bit_identical(interleaved, scalar);
}

TEST_P(FftKernelDifferentialTest, ForwardSoaMatchesReferenceDft) {
  const std::size_t n = GetParam();
  const FftPlan plan(n);
  IqVector data = random_iq(n, 9000 + n);
  const IqVector expected = reference_dft(data, false);
  plan.forward(data);
  double max_err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    max_err = std::max(max_err,
                       static_cast<double>(std::abs(data[i] - expected[i])));
  EXPECT_LT(max_err, 1e-2 * std::sqrt(static_cast<double>(n)));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftKernelDifferentialTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 64u, 512u, 1024u,
                                           2048u));

// A shared immutable plan must be usable from many threads on distinct
// buffers; every thread must see the single-thread result bit for bit.
// (Runs under the TSan CI preset via the Differential filter.)
TEST(FftConcurrencyDifferentialTest, SharedPlanThreadsMatchSingleThread) {
  const std::size_t n = 1024;
  const FftPlan plan(n);
  constexpr unsigned kThreads = 4;
  constexpr unsigned kReps = 16;

  std::vector<IqVector> inputs(kThreads);
  std::vector<IqVector> expected(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    inputs[t] = random_iq(n, 100 + t);
    expected[t] = inputs[t];
    plan.forward(expected[t]);
  }

  std::vector<IqVector> got(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned rep = 0; rep < kReps; ++rep) {
        got[t] = inputs[t];
        plan.forward(got[t]);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t)
    expect_bit_identical(got[t], expected[t]);
}

// --- CRC -------------------------------------------------------------------

TEST(CrcKernelDifferentialTest, TableMatchesBitwiseReferenceAllLengths) {
  // Every length 0..130 covers all bits.size() % 8 phases of the leading
  // bitwise fold, plus multi-byte table walks.
  for (std::size_t len = 0; len <= 130; ++len) {
    const BitVector bits = random_bits(len, 3000 + len);
    EXPECT_EQ(crc24a(bits), crc24a_reference(bits)) << "24A len " << len;
    EXPECT_EQ(crc24b(bits), crc24b_reference(bits)) << "24B len " << len;
  }
}

TEST(CrcKernelDifferentialTest, TableMatchesBitwiseReferenceCorners) {
  for (const std::size_t len : {1u, 7u, 8u, 9u, 23u, 24u, 25u, 6144u, 6145u}) {
    const BitVector zeros(len, 0);
    const BitVector ones(len, 1);
    EXPECT_EQ(crc24a(zeros), crc24a_reference(zeros)) << "zeros len " << len;
    EXPECT_EQ(crc24a(ones), crc24a_reference(ones)) << "ones len " << len;
    EXPECT_EQ(crc24b(zeros), crc24b_reference(zeros)) << "zeros len " << len;
    EXPECT_EQ(crc24b(ones), crc24b_reference(ones)) << "ones len " << len;
    // Single set bit at each end: catches reflected/shifted table bugs.
    BitVector lead(len, 0), trail(len, 0);
    lead.front() = 1;
    trail.back() = 1;
    EXPECT_EQ(crc24a(lead), crc24a_reference(lead)) << "lead len " << len;
    EXPECT_EQ(crc24a(trail), crc24a_reference(trail)) << "trail len " << len;
  }
  const BitVector empty;
  EXPECT_EQ(crc24a(empty), crc24a_reference(empty));
  EXPECT_EQ(crc24b(empty), crc24b_reference(empty));
}

// --- Turbo -----------------------------------------------------------------

// How a turbo case's channel LLRs are made: noisy floats, the same rounded
// to integers (exact metric ties everywhere, and -0 wherever a small
// negative LLR rounds), or all zero (every metric ties).
enum class LlrShape { kNoisy, kInteger, kZero };

LlrVector shaped_llrs(const BitVector& bits, double snr_db, Rng& rng,
                      LlrShape shape) {
  LlrVector llrs = noisy_llrs(bits, snr_db, rng);
  for (float& x : llrs)
    x = shape == LlrShape::kZero      ? 0.0f
        : shape == LlrShape::kInteger ? std::nearbyint(x)
                                      : x;
  return llrs;
}

struct TurboCase {
  std::size_t k;
  double snr_db;
  std::uint64_t seed;
  LlrShape shape = LlrShape::kNoisy;
};

// The flattened SISO must reproduce the reference decoder EXACTLY: same hard
// decisions, same iteration count, same early-termination flag — across
// block sizes, noise levels (including undecodable), CRC-gated and free
// running. K = 100 is not a multiple of the SISO's 8-step extraction block,
// so its last steps take the scalar tail. The workspace is shared across
// all cases (large K before small) to prove stale grow-only buffers never
// leak into a decode.
TEST(TurboKernelDifferentialTest, DecodeIntoMatchesReferenceExactly) {
  const TurboCase cases[] = {
      {6144, 2.0, 1}, {6144, -1.0, 2}, {1024, 6.0, 3},  {1024, -2.5, 4},
      {512, 0.0, 5},  {104, 4.0, 6},   {104, -4.0, 7},  {40, 8.0, 8},
      {40, -6.0, 9},  {2048, -2.0, 10}, {100, 1.0, 11}, {100, -3.0, 12},
      {1024, -1.0, 13, LlrShape::kInteger}, {100, 0.0, 14, LlrShape::kInteger},
      {104, 0.0, 15, LlrShape::kZero},      {100, 0.0, 16, LlrShape::kZero},
  };
  DecodeWorkspace ws;
  for (const auto& c : cases) {
    const QppInterleaver qpp(c.k);
    const TurboEncoder enc(qpp);
    const TurboDecoder dec(qpp, 6);
    Rng rng(c.seed);
    BitVector payload = random_bits(c.k - 24, c.seed * 31);
    attach_crc24(payload, CrcKind::kB);
    const auto cw = enc.encode(payload);
    const LlrVector sys = shaped_llrs(cw.systematic, c.snr_db, rng, c.shape);
    const LlrVector p1 = shaped_llrs(cw.parity1, c.snr_db, rng, c.shape);
    const LlrVector p2 = shaped_llrs(cw.parity2, c.snr_db, rng, c.shape);
    const auto crc = [](std::span<const std::uint8_t> b) {
      return check_crc24(b, CrcKind::kB);
    };

    const auto ref = dec.decode_reference(sys, p1, p2, crc);
    dec.decode_into(sys, p1, p2, ws, crc);
    ASSERT_GE(ws.bits.size(), c.k);
    EXPECT_TRUE(std::equal(ref.bits.begin(), ref.bits.end(), ws.bits.begin()))
        << "K=" << c.k << " snr=" << c.snr_db;
    EXPECT_EQ(ws.iterations, ref.iterations) << "K=" << c.k;
    EXPECT_EQ(ws.early_terminated, ref.early_terminated) << "K=" << c.k;

    const auto opt = dec.decode(sys, p1, p2, crc);
    EXPECT_EQ(opt.bits, ref.bits) << "K=" << c.k;
    EXPECT_EQ(opt.iterations, ref.iterations) << "K=" << c.k;
    EXPECT_EQ(opt.early_terminated, ref.early_terminated) << "K=" << c.k;
  }
}

TEST(TurboKernelDifferentialTest, FreeRunningAndCappedMatchReference) {
  // No CRC callback: runs to Lm; iteration override: degraded-mode cap. The
  // K = 100 integer-valued block runs the extraction tail under a cap.
  struct CappedCase {
    TurboCase c;
    std::vector<unsigned> caps;
  };
  const CappedCase cases[] = {
      {{512, -2.0, 77}, {0u, 1u, 3u}},
      {{100, -1.0, 79, LlrShape::kInteger}, {2u}},
  };
  for (const auto& [c, caps] : cases) {
    const QppInterleaver qpp(c.k);
    const TurboEncoder enc(qpp);
    const TurboDecoder dec(qpp, 8);
    Rng rng(c.seed);
    const BitVector bits = random_bits(c.k, c.seed + 1);
    const auto cw = enc.encode(bits);
    const LlrVector sys = shaped_llrs(cw.systematic, c.snr_db, rng, c.shape);
    const LlrVector p1 = shaped_llrs(cw.parity1, c.snr_db, rng, c.shape);
    const LlrVector p2 = shaped_llrs(cw.parity2, c.snr_db, rng, c.shape);

    for (const unsigned cap : caps) {
      const auto ref = dec.decode_reference(sys, p1, p2, {}, cap);
      const auto opt = dec.decode(sys, p1, p2, {}, cap);
      EXPECT_EQ(opt.bits, ref.bits) << "K=" << c.k << " cap=" << cap;
      EXPECT_EQ(opt.iterations, ref.iterations) << "K=" << c.k << " cap=" << cap;
      EXPECT_EQ(opt.early_terminated, ref.early_terminated)
          << "K=" << c.k << " cap=" << cap;
    }
  }
}

// --- Batched SoA turbo decoder ---------------------------------------------

/// Per-lane reference decode + comparison harness: decodes `lanes_n`
/// distinct codewords scalar (decode_reference), then batched, and demands
/// exact agreement on bits, iteration counts and early-termination flags.
void check_batch_against_scalar(std::size_t k, std::size_t lanes_n,
                                unsigned lm, unsigned cap, bool with_crc,
                                std::uint64_t seed_base,
                                std::span<const double> snrs,
                                DecodeWorkspace& ws) {
  const QppInterleaver qpp(k);
  const TurboEncoder enc(qpp);
  const TurboDecoder dec(qpp, lm);
  const auto crc = [](std::span<const std::uint8_t> b) {
    return check_crc24(b, CrcKind::kB);
  };

  std::vector<LlrVector> sys(lanes_n), p1(lanes_n), p2(lanes_n);
  std::vector<TurboDecodeResult> ref(lanes_n);
  std::vector<TurboBatchLane> lanes(lanes_n);
  for (std::size_t b = 0; b < lanes_n; ++b) {
    Rng rng(seed_base + b);
    BitVector payload = random_bits(k - 24, seed_base * 31 + b);
    attach_crc24(payload, CrcKind::kB);
    const auto cw = enc.encode(payload);
    const double snr = snrs[b % snrs.size()];
    sys[b] = noisy_llrs(cw.systematic, snr, rng);
    p1[b] = noisy_llrs(cw.parity1, snr, rng);
    p2[b] = noisy_llrs(cw.parity2, snr, rng);
    ref[b] = dec.decode_reference(
        sys[b], p1[b], p2[b],
        with_crc ? std::function<bool(std::span<const std::uint8_t>)>(crc)
                 : std::function<bool(std::span<const std::uint8_t>)>{},
        cap);
    lanes[b] = {sys[b], p1[b], p2[b]};
  }

  dec.decode_batch_into(
      lanes, ws,
      with_crc ? std::function<bool(std::size_t,
                                    std::span<const std::uint8_t>)>(
                     [&](std::size_t, std::span<const std::uint8_t> bits) {
                       return check_crc24(bits, CrcKind::kB);
                     })
               : std::function<bool(std::size_t,
                                    std::span<const std::uint8_t>)>{},
      cap);

  for (std::size_t b = 0; b < lanes_n; ++b) {
    ASSERT_GE(ws.bat_bits.size(), (b + 1) * k);
    EXPECT_TRUE(std::equal(ref[b].bits.begin(), ref[b].bits.end(),
                           ws.bat_bits.begin() +
                               static_cast<std::ptrdiff_t>(b * k)))
        << "K=" << k << " lanes=" << lanes_n << " lane=" << b;
    EXPECT_EQ(ws.bat_iterations[b], ref[b].iterations)
        << "K=" << k << " lanes=" << lanes_n << " lane=" << b;
    EXPECT_EQ(ws.bat_early_terminated[b], ref[b].early_terminated)
        << "K=" << k << " lanes=" << lanes_n << " lane=" << b;
  }
}

// Every batch width 1..kTurboBatchLanes (ragged tails included) with mixed
// per-lane noise — some lanes early-terminate on the first iteration while
// undecodable neighbours run to Lm — must reproduce the scalar reference
// lane for lane. The workspace is shared across widths (wide before
// narrow) to prove stale grow-only rows never leak between batches.
TEST(TurboBatchDifferentialTest, AllBatchWidthsMatchScalarExactly) {
  const double snrs[] = {6.0, -1.0, 2.0, -4.0, 8.0, 0.0, -2.5, 4.0};
  DecodeWorkspace ws;
  for (std::size_t lanes_n = kTurboBatchLanes; lanes_n >= 1; --lanes_n)
    check_batch_against_scalar(1024, lanes_n, /*lm=*/6, /*cap=*/0,
                               /*with_crc=*/true, 900 + 17 * lanes_n, snrs,
                               ws);
}

// Block sizes spanning the MCS classes (tiny blocks to the 6144 maximum),
// free-running and iteration-capped (degraded mode), full batches. The
// batched SISO walks its forward sweep in windows of 64 steps, rebuilding
// each window's backward metrics from a checkpoint, so the sizes also sit
// on the window edges: one window short of full (56), exactly one (64),
// one plus an 8-step window (72), exactly two (128), a last window of 8
// steps after six full ones (392), and a ragged last window (100).
TEST(TurboBatchDifferentialTest, BlockSizesAndCapsMatchScalarExactly) {
  const double snrs[] = {4.0, -2.0, 1.0, -5.0, 7.0, 0.5, -1.5, 3.0};
  DecodeWorkspace ws;
  for (const std::size_t k : {40u, 56u, 64u, 72u, 100u, 104u, 128u, 392u,
                              512u, 2048u, 6144u}) {
    check_batch_against_scalar(k, kTurboBatchLanes, /*lm=*/4, /*cap=*/0,
                               /*with_crc=*/false, 1200 + k, snrs, ws);
    check_batch_against_scalar(k, kTurboBatchLanes, /*lm=*/4, /*cap=*/2,
                               /*with_crc=*/false, 1300 + k, snrs, ws);
  }
}

// CRC-gated batches at every block size: per-lane early termination must
// freeze exactly the lanes whose scalar counterparts terminate, at the
// same iteration, while the rest keep refining.
TEST(TurboBatchDifferentialTest, CrcGatedBlockSizesMatchScalarExactly) {
  const double snrs[] = {8.0, -4.0, 6.0, -1.0, 4.0, 2.0, 0.0, -2.5};
  DecodeWorkspace ws;
  for (const std::size_t k : {104u, 512u, 6144u})
    check_batch_against_scalar(k, kTurboBatchLanes, /*lm=*/6, /*cap=*/0,
                               /*with_crc=*/true, 1400 + k, snrs, ws);
}

// --- Batched decode stage --------------------------------------------------

// run_decode_batch over a 16-job span must leave every job's cb_results
// (bits, iterations, CRC verdict) exactly as run_decode_subtask over each
// block of a copy of that job. The span is built so one call exercises the
// stage's whole grouping logic: blocks group under (K, iteration cap) keys
// in first-appearance order — jobs at different MCS with equal K share a
// key, the capped job gets its own key beside an uncapped one of equal K,
// and one key spills over eight lanes — so the groups take every size from
// 1 to 8, the small ones through the scalar fallback. Batched groups mix
// single-block lanes (CRC24A after filler) with segmented ones (CRC24B),
// and per-job noise makes some blocks iterate more than once, some run to
// the cap and some fail.
TEST(UplinkBatchDifferentialTest, SixteenJobSpanMatchesPerSubtaskDecode) {
  struct JobSpec {
    unsigned mcs;
    unsigned cap;
    double snr_db;
  };
  // K (blocks) per MCS at 10 MHz: 0: 1376 (1), 2: 2240 (1), 5: 4224 (1),
  // 7: 6080 (1), 8: 3584 (2), 9: 4032 (2), 13: 4224 (3), 14: 4736 (3),
  // 17: 4672 (4), 23: 5312 (5), 24: 5568 (5), 26: 6080 (5), 27: 5312 (6).
  const JobSpec specs[] = {
      {27, 0, 14.0}, {0, 0, -6.0}, {13, 0, 5.0},  {7, 0, -2.0},
      {8, 0, 0.0},   {5, 0, -2.0}, {17, 0, 7.0},  {23, 0, 12.0},
      {26, 0, 12.0}, {13, 0, 4.0}, {24, 0, 13.0}, {27, 1, 13.0},
      {14, 0, 30.0}, {2, 0, -4.0}, {9, 0, 0.0},   {27, 0, 20.0},
  };
  constexpr std::size_t kJobs = std::size(specs);
  static_assert(kJobs == 16);

  UplinkConfig cfg;
  const UplinkTransmitter tx(cfg);
  const UplinkRxProcessor rx(cfg);
  DecodeWorkspace ws;
  std::vector<UplinkRxJob> jobs;
  for (std::size_t j = 0; j < kJobs; ++j) {
    const JobSpec& spec = specs[j];
    const TxSubframe sf = tx.transmit(spec.mcs, static_cast<std::uint32_t>(j),
                                      500 + j);
    double power = 0.0;
    for (const Complex& x : sf.samples) power += std::norm(x);
    power /= static_cast<double>(sf.samples.size());
    const double sigma =
        std::sqrt(power / std::pow(10.0, spec.snr_db / 10.0) / 2.0);
    Rng rng(600 + j);
    std::vector<IqVector> antennas(cfg.num_antennas, sf.samples);
    for (IqVector& a : antennas)
      for (Complex& x : a)
        x += Complex(static_cast<float>(rng.normal(0.0, sigma)),
                     static_cast<float>(rng.normal(0.0, sigma)));

    UplinkRxJob job = rx.make_job();
    rx.begin(job, antennas, spec.mcs, sf.subframe_index);
    job.iteration_cap = spec.cap;
    for (std::size_t i = 0; i < rx.fft_subtask_count(); ++i)
      rx.run_fft_subtask(job, i, ws);
    rx.demod_prepare(job);
    for (std::size_t i = 0; i < rx.demod_subtask_count(); ++i)
      rx.run_demod_subtask(job, i);
    rx.decode_prepare(job, ws);
    jobs.push_back(std::move(job));
  }

  // The fixture's group sizes, derived like the stage derives them.
  std::vector<std::pair<std::size_t, unsigned>> keys;
  std::vector<std::size_t> key_blocks;
  for (const JobSpec& spec : specs) {
    const CodeBlockLayout layout = code_block_layout(cfg, spec.mcs);
    const std::pair<std::size_t, unsigned> key{layout.block_size, spec.cap};
    const auto it = std::find(keys.begin(), keys.end(), key);
    if (it == keys.end()) {
      keys.push_back(key);
      key_blocks.push_back(layout.e_bits.size());
    } else {
      key_blocks[static_cast<std::size_t>(it - keys.begin())] +=
          layout.e_bits.size();
    }
  }
  std::set<std::size_t> group_sizes;
  for (std::size_t blocks : key_blocks) {
    for (; blocks > kTurboBatchLanes; blocks -= kTurboBatchLanes)
      group_sizes.insert(kTurboBatchLanes);
    group_sizes.insert(blocks);
  }
  EXPECT_EQ(group_sizes, (std::set<std::size_t>{1, 2, 3, 4, 5, 6, 7, 8}));

  std::vector<UplinkRxJob> expected = jobs;
  for (UplinkRxJob& job : expected)
    for (std::size_t i = 0; i < rx.decode_subtask_count(job); ++i)
      rx.run_decode_subtask(job, i, ws);

  std::vector<UplinkRxJob*> span;
  for (UplinkRxJob& job : jobs) span.push_back(&job);
  rx.run_decode_batch(std::span<UplinkRxJob* const>(span), ws);

  unsigned multi_iteration = 0, passed = 0, failed = 0;
  for (std::size_t j = 0; j < kJobs; ++j) {
    ASSERT_EQ(jobs[j].cb_results.size(), expected[j].cb_results.size());
    for (std::size_t i = 0; i < jobs[j].cb_results.size(); ++i) {
      const auto& got = jobs[j].cb_results[i];
      const auto& want = expected[j].cb_results[i];
      EXPECT_EQ(got.bits, want.bits) << "job " << j << " block " << i;
      EXPECT_EQ(got.iterations, want.iterations)
          << "job " << j << " block " << i;
      EXPECT_EQ(got.crc_ok, want.crc_ok) << "job " << j << " block " << i;
      multi_iteration += want.iterations > 1;
      passed += want.crc_ok;
      failed += !want.crc_ok;
      if (specs[j].cap != 0) {
        EXPECT_LE(want.iterations, specs[j].cap);
      }
    }
  }
  // The fixture must keep exercising what it claims to.
  EXPECT_GT(multi_iteration, 0u);
  EXPECT_GT(passed, 0u);
  EXPECT_GT(failed, 0u);
}

// --- Demapper --------------------------------------------------------------

TEST(DemodKernelDifferentialTest, UnrolledMatchesReferenceExactly) {
  for (const unsigned order : {2u, 4u, 6u}) {
    const std::size_t n = 600;
    const IqVector symbols = random_iq(n, 4000 + order);
    Rng rng(4100 + order);
    std::vector<float> noise(n);
    for (auto& v : noise)
      v = static_cast<float>(std::abs(rng.normal(0.05, 0.02)));
    noise[0] = 0.0f;    // hits the 1e-9 clamp in both paths.
    noise[1] = 1e-12f;  // below the clamp.

    const LlrVector ref = demodulate_reference(symbols, noise, order);
    const LlrVector opt = demodulate(symbols, noise, order);
    ASSERT_EQ(opt.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_EQ(opt[i], ref[i]) << "order " << order << " llr " << i;

    LlrVector into(n * order);
    demodulate_into(symbols, noise, order, into);
    EXPECT_EQ(into, ref) << "order " << order;
  }
}

// The vectorized demapper processes a fixed block of symbols per pass and
// hands the ragged tail to the scalar kernel; every (order, length) pair
// must match the axis-decomposed reference bit for bit. Lengths cover all
// tail residues of both the AVX2 (8-symbol) and NEON (4-symbol) blocks,
// plus the pure-tail lengths below one block.
TEST(DemodKernelDifferentialTest, SimdBlocksAndRaggedTailsMatchReference) {
  const std::size_t lengths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 15, 16, 17,
                                 31, 32, 33, 100, 601};
  for (const unsigned order : {2u, 4u, 6u}) {
    for (const std::size_t n : lengths) {
      const IqVector symbols = random_iq(n, 4300 + 100 * order + n);
      Rng rng(4400 + n);
      std::vector<float> noise(n);
      for (auto& v : noise)
        v = static_cast<float>(std::abs(rng.normal(0.05, 0.02)));
      if (n > 2) noise[2] = 0.0f;  // clamp path inside a SIMD block.

      const LlrVector ref = demodulate_reference(symbols, noise, order);
      LlrVector into(n * order);
      demodulate_into(symbols, noise, order, into);
      ASSERT_EQ(into.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(into[i], ref[i])
            << "order " << order << " n " << n << " llr " << i;
    }
  }
}

// --- Rate dematcher --------------------------------------------------------

TEST(RateMatchKernelDifferentialTest, DematchIntoMatchesDematchExactly) {
  const std::size_t k = 512;
  const RateMatcher rm(k);
  const std::size_t kd = k + 4;
  // Below capacity (puncturing), exactly one wrap, and heavy repetition.
  const std::size_t e_values[] = {kd, 2 * kd, rm.buffer_size() + 17,
                                  3 * rm.buffer_size() + 5};
  for (const std::size_t e : e_values) {
    for (unsigned rv = 0; rv < 4; ++rv) {
      Rng rng(5000 + e + rv);
      LlrVector llrs(e);
      for (auto& v : llrs) v = static_cast<float>(rng.normal());

      const auto ref = rm.dematch(llrs, rv);
      LlrVector sys(kd, 99.0f), p1(kd, 99.0f), p2(kd, 99.0f);  // stale fill.
      rm.dematch_into(llrs, rv, sys, p1, p2);
      EXPECT_EQ(sys, ref.systematic) << "e=" << e << " rv=" << rv;
      EXPECT_EQ(p1, ref.parity1) << "e=" << e << " rv=" << rv;
      EXPECT_EQ(p2, ref.parity2) << "e=" << e << " rv=" << rv;
    }
  }
}

// The row-layout dematch the batched decoder's rows are written with: a
// code block in any lane slot 0..7, beside neighbours of other lengths,
// must land in its column exactly as the contiguous dematch, and columns
// past the batch width must be zero whatever the buffer held before.
TEST(RateMatchKernelDifferentialTest, RowLayoutDematchMatchesContiguous) {
  constexpr std::size_t kL = kTurboBatchLanes;
  const std::size_t k = 512;
  const RateMatcher rm(k);
  const std::size_t kd = k + 4;
  // Below the circular buffer (puncturing) and above it (repetition).
  const std::size_t e_values[] = {kd + 3, rm.buffer_size() + 17};
  for (const std::size_t e : e_values) {
    for (unsigned rv = 0; rv < 4; ++rv) {
      for (std::size_t lane = 0; lane < kL; ++lane) {
        // Lanes 0..lane: the block under test at `lane`, shorter and longer
        // neighbours before it.
        const std::size_t n = lane + 1;
        std::vector<LlrVector> llrs(n);
        std::vector<std::span<const float>> spans(n);
        for (std::size_t b = 0; b < n; ++b) {
          Rng rng(5100 + e + 10 * rv + b);
          llrs[b].resize(b == lane ? e : e - 1 + 2 * (b % 2));
          for (auto& v : llrs[b]) v = static_cast<float>(rng.normal());
          spans[b] = llrs[b];
        }
        std::vector<float> rows(3 * kd * kL, 99.0f);  // stale fill.
        float* blocks[3] = {rows.data(), rows.data() + kd * kL,
                            rows.data() + 2 * kd * kL};
        rm.dematch_rows(spans, rv, blocks[0], blocks[1], blocks[2]);
        for (std::size_t b = 0; b < kL; ++b) {
          const RateMatcher::Dematched ref =
              b < n ? rm.dematch(llrs[b], rv) : RateMatcher::Dematched{};
          const LlrVector* want[3] = {&ref.systematic, &ref.parity1,
                                      &ref.parity2};
          for (std::size_t s = 0; s < 3; ++s)
            for (std::size_t i = 0; i < kd; ++i)
              ASSERT_EQ(blocks[s][i * kL + b], b < n ? (*want[s])[i] : 0.0f)
                  << "e=" << e << " rv=" << rv << " lanes=" << n
                  << " col=" << b << " stream=" << s << " pos=" << i;
        }
      }
    }
  }
}

// --- Descrambler -----------------------------------------------------------

TEST(ScramblerKernelDifferentialTest, CachedMatchesUncachedAcrossKeyChanges) {
  DecodeWorkspace ws;
  const std::uint32_t init_a = scrambling_init(0x003D, 1, 0);
  const std::uint32_t init_b = scrambling_init(0x003D, 2, 0);
  // The adversarial order for a (c_init, length)-keyed grow-only cache:
  // long B, then shorter A (buffer longer than A's generated prefix), then
  // longer A again (must regenerate, not serve B's stale tail).
  const struct {
    std::uint32_t c_init;
    std::size_t len;
  } steps[] = {{init_b, 300}, {init_a, 200}, {init_a, 300},
               {init_a, 120}, {init_b, 300}, {init_a, 301}};
  for (const auto& step : steps) {
    Rng rng(6000 + step.len);
    LlrVector llrs(step.len);
    for (auto& v : llrs) v = static_cast<float>(rng.normal());
    LlrVector expected = llrs;
    descramble_llrs(expected, step.c_init);
    descramble_llrs_cached(llrs, step.c_init, ws);
    EXPECT_EQ(llrs, expected) << "c_init=" << step.c_init
                              << " len=" << step.len;
  }
}

// Bounded-memory regression: hammer the cache with far more distinct
// c_init values than it has slots. Retained bytes must stay capped at
// kEntries sequences of the longest requested length — the pre-LRU
// grow-only map would retain one sequence per distinct key and fail this.
TEST(ScramblerKernelDifferentialTest, CacheMemoryStaysBoundedUnderManyKeys) {
  DecodeWorkspace ws;
  const std::size_t len = 256;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const std::uint32_t c_init = scrambling_init(
        static_cast<std::uint16_t>(i & 0xffff), i % 10,
        static_cast<std::uint16_t>(i / 10));
    Rng rng(7000 + i);
    LlrVector llrs(len);
    for (auto& v : llrs) v = static_cast<float>(rng.normal());
    LlrVector expected = llrs;
    descramble_llrs(expected, c_init);
    descramble_llrs_cached(llrs, c_init, ws);
    ASSERT_EQ(llrs, expected) << "c_init=" << c_init;
  }
  EXPECT_LE(ws.scramble.retained_bytes(),
            ScrambleCache::kEntries * 2 * len);

  // A worker's steady state — one basestation's 10-value rotation — stays
  // fully resident: after one warm lap, every further lap hits (clock
  // advances exactly once per call, never regenerates).
  std::array<std::uint32_t, 10> rotation;
  for (std::uint32_t s = 0; s < 10; ++s)
    rotation[s] = scrambling_init(0x003D, s, 7);
  LlrVector llrs(len, 1.0f);
  for (const std::uint32_t c : rotation)
    descramble_llrs_cached(llrs, c, ws);  // warm lap
  const std::size_t retained = ws.scramble.retained_bytes();
  for (unsigned lap = 0; lap < 3; ++lap)
    for (const std::uint32_t c : rotation)
      descramble_llrs_cached(llrs, c, ws);
  EXPECT_EQ(ws.scramble.retained_bytes(), retained);
}

// --- OFDM ------------------------------------------------------------------

TEST(OfdmKernelDifferentialTest, DemodulateIntoMatchesPlainExactly) {
  const FftPlan plan(2048);
  const std::size_t nsc = 600, cp = 144;
  const IqVector time = random_iq(2048 + cp, 42);
  const IqVector ref = ofdm_demodulate(plan, time, cp, nsc);

  DecodeWorkspace ws;
  IqVector out(nsc);
  ofdm_demodulate_into(plan, time, cp, out, ws);
  expect_bit_identical(out, ref);
}

}  // namespace
}  // namespace rtopex::phy
