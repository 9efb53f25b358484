#include "phy/turbo.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#if defined(RTOPEX_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#endif

namespace rtopex::phy {
namespace {

constexpr int kNumStates = 8;
constexpr float kNegInf = -1e30f;

// RSC state: (s0, s1, s2) = last three feedback values, s0 most recent,
// packed as s0 | s1<<1 | s2<<2.
//
// Feedback  a_t = u_t ^ s1 ^ s2          (g0 = 1 + D^2 + D^3)
// Parity    z_t = a_t ^ s0 ^ s2          (g1 = 1 + D + D^3)
// Next      (a_t, s0, s1)

struct Transition {
  std::uint8_t next;    // next state
  std::uint8_t parity;  // z for this (state, input)
};

struct Trellis {
  // [state][input] -> transition
  std::array<std::array<Transition, 2>, kNumStates> step{};
  // Termination input per state (drives the feedback to zero).
  std::array<std::uint8_t, kNumStates> term_input{};

  Trellis() {
    for (int s = 0; s < kNumStates; ++s) {
      const int s0 = s & 1;
      const int s1 = (s >> 1) & 1;
      const int s2 = (s >> 2) & 1;
      for (int u = 0; u < 2; ++u) {
        const int a = u ^ s1 ^ s2;
        const int z = a ^ s0 ^ s2;
        const int next = a | (s0 << 1) | (s1 << 2);
        step[s][u] = {static_cast<std::uint8_t>(next),
                      static_cast<std::uint8_t>(z)};
      }
      term_input[s] = static_cast<std::uint8_t>(s1 ^ s2);
    }
  }
};

const Trellis& trellis() {
  static const Trellis t;
  return t;
}

// One RSC encoder pass. Returns parity bits; appends the 3 termination
// (input, parity) pairs to tail_sys/tail_par and leaves the register at 0.
BitVector rsc_encode(std::span<const std::uint8_t> bits, BitVector& tail_sys,
                     BitVector& tail_par) {
  const Trellis& t = trellis();
  BitVector parity(bits.size());
  int state = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const auto& tr = t.step[state][bits[i] & 1];
    parity[i] = tr.parity;
    state = tr.next;
  }
  for (int i = 0; i < 3; ++i) {
    const std::uint8_t u = t.term_input[state];
    const auto& tr = t.step[state][u];
    tail_sys.push_back(u);
    tail_par.push_back(tr.parity);
    state = tr.next;
  }
  return parity;
}

// Max-log-MAP (BCJR) over one constituent code.
//
// Inputs are in the "metric" domain: llr(bit) = log P(0) - log P(1); a
// hypothesized bit b contributes 0.5 * sign(b) * llr with sign(0) = +1,
// sign(1) = -1. `sys_in` already contains channel-plus-apriori information
// for the K data positions and channel tail information for the last 3.
// Returns the a-posteriori LLR for the K data bits (not the tails).
//
// The trellis starts in state 0 and, thanks to termination, ends in state 0
// after K + 3 steps.
LlrVector siso_decode(std::span<const float> sys_in,
                      std::span<const float> par_in, std::size_t k) {
  const Trellis& t = trellis();
  const std::size_t steps = k + 3;
  if (sys_in.size() != steps || par_in.size() != steps)
    throw std::invalid_argument("siso_decode: bad input length");

  // Branch metric for (state s, input u) at step i.
  auto gamma = [&](std::size_t i, int s, int u) {
    const float bu = u == 0 ? 0.5f : -0.5f;
    const int z = t.step[s][u].parity;
    const float bz = z == 0 ? 0.5f : -0.5f;
    return bu * sys_in[i] + bz * par_in[i];
  };

  // The forward/backward metric arrays are large (8 floats per trellis
  // step); decoding is a hot path run concurrently from many cores, so the
  // scratch is recycled per thread instead of reallocated per call.
  thread_local std::vector<std::array<float, kNumStates>> alpha;
  thread_local std::vector<std::array<float, kNumStates>> beta_all;
  if (alpha.size() < steps + 1) {
    alpha.resize(steps + 1);
    beta_all.resize(steps + 1);
  }
  alpha[0].fill(kNegInf);
  alpha[0][0] = 0.0f;
  for (std::size_t i = 0; i < steps; ++i) {
    alpha[i + 1].fill(kNegInf);
    for (int s = 0; s < kNumStates; ++s) {
      if (alpha[i][s] <= kNegInf) continue;
      for (int u = 0; u < 2; ++u) {
        const int ns = t.step[s][u].next;
        const float m = alpha[i][s] + gamma(i, s, u);
        alpha[i + 1][ns] = std::max(alpha[i + 1][ns], m);
      }
    }
  }

  std::array<float, kNumStates> beta;
  beta.fill(kNegInf);
  beta[0] = 0.0f;  // terminated trellis
  beta_all[steps] = beta;
  for (std::size_t i = steps; i-- > 0;) {
    std::array<float, kNumStates> prev;
    prev.fill(kNegInf);
    for (int s = 0; s < kNumStates; ++s) {
      for (int u = 0; u < 2; ++u) {
        const int ns = t.step[s][u].next;
        if (beta_all[i + 1][ns] <= kNegInf) continue;
        const float m = beta_all[i + 1][ns] + gamma(i, s, u);
        prev[s] = std::max(prev[s], m);
      }
    }
    beta_all[i] = prev;
  }

  LlrVector out(k);
  for (std::size_t i = 0; i < k; ++i) {
    float m0 = kNegInf;
    float m1 = kNegInf;
    for (int s = 0; s < kNumStates; ++s) {
      if (alpha[i][s] <= kNegInf) continue;
      for (int u = 0; u < 2; ++u) {
        const int ns = t.step[s][u].next;
        const float m = alpha[i][s] + gamma(i, s, u) + beta_all[i + 1][ns];
        if (u == 0)
          m0 = std::max(m0, m);
        else
          m1 = std::max(m1, m);
      }
    }
    out[i] = m0 - m1;
  }
  return out;
}

// Flattened max-log-MAP over the same trellis, bit-identical to siso_decode.
//
//  * The four distinct branch metrics per step, gamma(u, z) =
//    (±0.5)·sys + (±0.5)·par, are {a+b, a-b, b-a, -(a+b)} with
//    a = 0.5f·sys, b = 0.5f·par. Each equals the reference's bu·sys + bz·par
//    exactly: multiplying by -0.5f instead of 0.5f only flips the sign bit,
//    IEEE negation is exact, and rounding is symmetric. Every pass computes
//    them where it needs them.
//  * The 8-state transition structure is unrolled at compile time from the
//    generators (g0 = 1 + D^2 + D^3, g1 = 1 + D + D^3), removing the
//    per-branch table walk and the reachability branches. Unreachable
//    states are handled arithmetically: their metric is exactly kNegInf,
//    and kNegInf + gamma == kNegInf in float (the ulp at 1e30 dwarfs any
//    branch metric), so the branchless max yields the same floats the
//    guarded reference produces.
//  * The forward and backward recursions are independent dependency chains,
//    so they run interleaved in one loop, each storing its metrics per step
//    (ws.alpha, ws.beta: one row of 8 states per step). A separate pass then
//    extracts every LLR from (alpha[i], gamma[i], beta[i+1]).
//
// Association orders match the reference exactly: alpha-then-gamma,
// beta-then-gamma, (alpha + gamma) + beta, and each LLR's two max chains
// run over the states in the reference's order.
//
// Transition map (state s, input u) -> (next, z), branch metrics indexed
// (u << 1) | z:
//   s0: u0->(0,0) u1->(1,1)    s4: u0->(1,0) u1->(0,1)
//   s1: u0->(2,1) u1->(3,0)    s5: u0->(3,1) u1->(2,0)
//   s2: u0->(5,1) u1->(4,0)    s6: u0->(4,1) u1->(5,0)
//   s3: u0->(7,0) u1->(6,1)    s7: u0->(6,0) u1->(7,1)

// Both recursions start from state 0: the trellis starts there and, being
// terminated, ends there.
constexpr float kStartMetrics[kNumStates] = {
    0.0f, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf, kNegInf};

// The LLR of one trellis step from its forward metrics a (alpha[i], state s
// at a[s]), its backward metrics b (beta[i+1]) and its channel inputs. T is
// float for one step, or one lane per step for eight steps at once.
template <typename T>
inline T step_llr(const T* a, const T* b, T sys, T par) {
  using std::max;
  const T x = 0.5f * sys;
  const T y = 0.5f * par;
  const T g0 = x + y;     // u=0, z=0
  const T g1 = x - y;     // u=0, z=1
  const T g2 = y - x;     // u=1, z=0
  const T g3 = -(x + y);  // u=1, z=1
  T m0 = (a[0] + g0) + b[0];
  m0 = max(m0, (a[1] + g1) + b[2]);
  m0 = max(m0, (a[2] + g1) + b[5]);
  m0 = max(m0, (a[3] + g0) + b[7]);
  m0 = max(m0, (a[4] + g0) + b[1]);
  m0 = max(m0, (a[5] + g1) + b[3]);
  m0 = max(m0, (a[6] + g1) + b[4]);
  m0 = max(m0, (a[7] + g0) + b[6]);
  T m1 = (a[0] + g3) + b[1];
  m1 = max(m1, (a[1] + g2) + b[3]);
  m1 = max(m1, (a[2] + g2) + b[4]);
  m1 = max(m1, (a[3] + g3) + b[6]);
  m1 = max(m1, (a[4] + g3) + b[0]);
  m1 = max(m1, (a[5] + g2) + b[2]);
  m1 = max(m1, (a[6] + g2) + b[5]);
  m1 = max(m1, (a[7] + g3) + b[7]);
  return m0 - m1;
}

#if defined(RTOPEX_SIMD) && defined(__AVX2__)
// Eight trellis steps, one per lane, for step_llr. std::max(x, y) keeps x
// unless x < y, and _mm256_max_ps(y, x) takes y only when y > x: the same
// choice, down to the sign of a zero, so every max swaps its operands.
struct Lanes8 {
  __m256 v;
};
inline Lanes8 operator+(Lanes8 p, Lanes8 q) { return {_mm256_add_ps(p.v, q.v)}; }
inline Lanes8 operator-(Lanes8 p, Lanes8 q) { return {_mm256_sub_ps(p.v, q.v)}; }
inline Lanes8 operator-(Lanes8 p) {
  return {_mm256_xor_ps(p.v, _mm256_set1_ps(-0.0f))};
}
inline Lanes8 operator*(float c, Lanes8 p) {
  return {_mm256_mul_ps(_mm256_set1_ps(c), p.v)};
}
inline Lanes8 max(Lanes8 p, Lanes8 q) { return {_mm256_max_ps(q.v, p.v)}; }

// Eight consecutive metric rows (step-major) to eight state columns: lane j
// of cols[s] is state s of row j.
inline void transpose_rows(const float* rows, Lanes8* cols) {
  __m256 r[8], t[8];
  for (int j = 0; j < 8; ++j) r[j] = _mm256_loadu_ps(rows + 8 * j);
  for (int j = 0; j < 8; j += 2) {
    t[j] = _mm256_unpacklo_ps(r[j], r[j + 1]);
    t[j + 1] = _mm256_unpackhi_ps(r[j], r[j + 1]);
  }
  for (int h = 0; h < 8; h += 4) {
    r[h + 0] = _mm256_shuffle_ps(t[h + 0], t[h + 2], 0x44);
    r[h + 1] = _mm256_shuffle_ps(t[h + 0], t[h + 2], 0xEE);
    r[h + 2] = _mm256_shuffle_ps(t[h + 1], t[h + 3], 0x44);
    r[h + 3] = _mm256_shuffle_ps(t[h + 1], t[h + 3], 0xEE);
  }
  for (int s = 0; s < 4; ++s) {
    cols[s].v = _mm256_permute2f128_ps(r[s], r[s + 4], 0x20);
    cols[s + 4].v = _mm256_permute2f128_ps(r[s], r[s + 4], 0x31);
  }
}

// Each recursion keeps its 8 state metrics in one vector. A step picks
// every state's two predecessors with two permutes, adds the two branch
// metric vectors and takes one max. The first metric vector is built from
// broadcast a = 0.5f·sys and b = 0.5f·par with sign-bit flips (a-b is
// a+(-b) and b-a is (-a)+b exactly); the second is its negation. A lane
// that holds (-a)+(-b) for -(a+b), or a negated sum for a-b or b-a, can
// differ from the portable expression only in the sign of a zero, which no
// metric sees: alpha and beta are never -0 (they start at +0 or kNegInf,
// and a float sum is -0 only when both addends are), so adding +0 or -0
// gives the same float. With the eight-step extraction, this form measured
// 2.1x faster than the portable one on BM_TurboDecode/6144/1
// (EXPERIMENTS.md).
class Recursions {
 public:
  Recursions() : alpha_(_mm256_loadu_ps(kStartMetrics)), beta_(alpha_) {}

  // alpha[i+1] into row n. Lanes: n[s] = max(alpha[s/2] + fwd[s],
  // alpha[s/2 + 4] - fwd[s]), fwd = {g0, g3, g1, g2, g2, g1, g3, g0}.
  void forward(float sys, float par, float* n) {
    const __m256 g = _mm256_add_ps(
        _mm256_xor_ps(_mm256_mul_ps(half_, _mm256_set1_ps(sys)), fwd_sys_),
        _mm256_xor_ps(_mm256_mul_ps(half_, _mm256_set1_ps(par)), flip_par_));
    alpha_ = _mm256_max_ps(
        _mm256_add_ps(_mm256_permutevar8x32_ps(alpha_, fwd_hi_),
                      _mm256_xor_ps(g, neg_)),
        _mm256_add_ps(_mm256_permutevar8x32_ps(alpha_, fwd_lo_), g));
    _mm256_storeu_ps(n, alpha_);
  }

  // beta[j] into row p. Lanes: p[s] = max(beta[next(s, 0)] + bwd[s],
  // beta[next(s, 1)] - bwd[s]), bwd = {g0, g1, g1, g0, g0, g1, g1, g0}.
  void backward(float sys, float par, float* p) {
    const __m256 g = _mm256_add_ps(
        _mm256_mul_ps(half_, _mm256_set1_ps(sys)),
        _mm256_xor_ps(_mm256_mul_ps(half_, _mm256_set1_ps(par)), flip_par_));
    beta_ = _mm256_max_ps(
        _mm256_add_ps(_mm256_permutevar8x32_ps(beta_, bwd_u1_),
                      _mm256_xor_ps(g, neg_)),
        _mm256_add_ps(_mm256_permutevar8x32_ps(beta_, bwd_u0_), g));
    _mm256_storeu_ps(p, beta_);
  }

 private:
  __m256 alpha_, beta_;
  const __m256 half_ = _mm256_set1_ps(0.5f);
  const __m256 neg_ = _mm256_set1_ps(-0.0f);
  const __m256 fwd_sys_ = _mm256_setr_ps(0.0f, -0.0f, 0.0f, -0.0f, -0.0f,
                                         0.0f, -0.0f, 0.0f);
  const __m256 flip_par_ = _mm256_setr_ps(0.0f, -0.0f, -0.0f, 0.0f, 0.0f,
                                          -0.0f, -0.0f, 0.0f);
  const __m256i fwd_lo_ = _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3);
  const __m256i fwd_hi_ = _mm256_setr_epi32(4, 4, 5, 5, 6, 6, 7, 7);
  const __m256i bwd_u0_ = _mm256_setr_epi32(0, 2, 5, 7, 1, 3, 4, 6);
  const __m256i bwd_u1_ = _mm256_setr_epi32(1, 3, 4, 6, 0, 2, 5, 7);
};
#else
// Portable recursions: each step reads the previous row back.
struct Recursions {
  // alpha[i+1] into row n from alpha[i] in row n - 8.
  static void forward(float sys, float par, float* n) {
    const float* a = n - kNumStates;
    const float x = 0.5f * sys;
    const float y = 0.5f * par;
    const float g0 = x + y, g1 = x - y, g2 = y - x, g3 = -(x + y);
    n[0] = std::max(a[0] + g0, a[4] + g3);
    n[1] = std::max(a[0] + g3, a[4] + g0);
    n[2] = std::max(a[1] + g1, a[5] + g2);
    n[3] = std::max(a[1] + g2, a[5] + g1);
    n[4] = std::max(a[2] + g2, a[6] + g1);
    n[5] = std::max(a[2] + g1, a[6] + g2);
    n[6] = std::max(a[3] + g3, a[7] + g0);
    n[7] = std::max(a[3] + g0, a[7] + g3);
  }

  // beta[j] into row p from beta[j+1] in row p + 8.
  static void backward(float sys, float par, float* p) {
    const float* b = p + kNumStates;
    const float x = 0.5f * sys;
    const float y = 0.5f * par;
    const float g0 = x + y, g1 = x - y, g2 = y - x, g3 = -(x + y);
    p[0] = std::max(b[0] + g0, b[1] + g3);
    p[1] = std::max(b[2] + g1, b[3] + g2);
    p[2] = std::max(b[5] + g1, b[4] + g2);
    p[3] = std::max(b[7] + g0, b[6] + g3);
    p[4] = std::max(b[1] + g0, b[0] + g3);
    p[5] = std::max(b[3] + g1, b[2] + g2);
    p[6] = std::max(b[4] + g1, b[5] + g2);
    p[7] = std::max(b[6] + g0, b[7] + g3);
  }
};
#endif

void siso_decode_flat(const float* __restrict__ sys_in,
                      const float* __restrict__ par_in, std::size_t k,
                      DecodeWorkspace& ws, float* __restrict__ app_out) {
  const std::size_t steps = k + 3;
  grow_buffer(ws.alpha, kNumStates * (steps + 1));
  grow_buffer(ws.beta, kNumStates * (steps + 1));
  float* __restrict__ alpha = ws.alpha.data();
  float* __restrict__ beta = ws.beta.data();

  // Recursions: alpha[1..steps-1] forward, beta[steps-1..1] backward.
  std::copy(kStartMetrics, kStartMetrics + kNumStates, alpha);
  std::copy(kStartMetrics, kStartMetrics + kNumStates,
            beta + kNumStates * steps);
  Recursions r;
  for (std::size_t i = 0, j = steps - 1; j > 0; ++i, --j) {
    r.forward(sys_in[i], par_in[i], alpha + kNumStates * (i + 1));
    r.backward(sys_in[j], par_in[j], beta + kNumStates * j);
  }

  // Extraction: app_out[i] from (alpha[i], gamma[i], beta[i+1]).
  std::size_t i = 0;
#if defined(RTOPEX_SIMD) && defined(__AVX2__)
  for (; i + 8 <= k; i += 8) {
    Lanes8 a[kNumStates], b[kNumStates];
    transpose_rows(alpha + kNumStates * i, a);
    transpose_rows(beta + kNumStates * (i + 1), b);
    const Lanes8 llr = step_llr(a, b, Lanes8{_mm256_loadu_ps(sys_in + i)},
                                Lanes8{_mm256_loadu_ps(par_in + i)});
    _mm256_storeu_ps(app_out + i, llr.v);
  }
#endif
  for (; i < k; ++i)
    app_out[i] = step_llr(alpha + kNumStates * i,
                          beta + kNumStates * (i + 1), sys_in[i], par_in[i]);
}

// Batched SoA variant of siso_decode_flat: every buffer holds lane-major
// rows of kTurboBatchLanes floats, a row of metrics being one 8x8 block
// ([8 states][8 lanes]), and each per-state statement of the flat kernel
// becomes one row statement whose lane loop is pure vertical arithmetic —
// lane b performs exactly the operations siso_decode_flat would on block
// b, in the same association order, so every lane is bit-identical to the
// scalar kernel by construction.
//
// The pass keeps no full metric rows. A backward sweep from the terminated
// end (three tail steps, then the data steps) stores only one checkpoint
// block per window of kBatchWindow steps: beta at the window's end. Then
// the windows run in order: each rebuilds its beta blocks from its
// checkpoint into a one-window buffer that stays in L1, and a forward
// sweep over the window extracts every LLR as it goes. A recomputed beta
// block comes from the same operations on the same inputs as in the first
// sweep, so it is the same floats. A forward step's 16 alpha + gamma sums
// feed both its LLR, with the reference's (alpha + gamma) + beta
// association and max-chain order, and the next alpha. The four branch
// metrics of a step are recomputed from its sys/par rows wherever they are
// needed (the scalar kernel's expressions, so the same floats).
//
// Against storing every alpha block (8 states x 8 lanes x (K+4) floats,
// 1.57 MB at K = 6144) the window buffer and checkpoints take 16 KB and
// 24 KB, at the cost of a second backward recursion. Windows of 16, 32 and
// 64 steps measured the same and 128 slower (EXPERIMENTS.md); 64 keeps the
// fewest checkpoints of the three.
constexpr std::size_t kBatchWindow = 64;
constexpr std::size_t kL = kTurboBatchLanes;
constexpr std::size_t kBlock = kNumStates * kL;

#if defined(RTOPEX_SIMD) && defined(__AVX2__)
// AVX2 step bodies: each state's eight lanes are one vector, and every max
// swaps its operands as Lanes8's does. A metric plus g3 = -(x + y) is
// computed as the metric minus g0: IEEE defines p - q as p + (-q), so the
// float is the same and g3 needs neither an op nor a register.
struct BatchGamma {
  __m256 g0, g1, g2;
  BatchGamma(const float* sy, const float* pa) {
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 x = _mm256_mul_ps(half, _mm256_loadu_ps(sy));
    const __m256 y = _mm256_mul_ps(half, _mm256_loadu_ps(pa));
    g0 = _mm256_add_ps(x, y);  // u=0, z=0
    g1 = _mm256_sub_ps(x, y);  // u=0, z=1
    g2 = _mm256_sub_ps(y, x);  // u=1, z=0
  }
};

inline __m256 vmax(__m256 p, __m256 q) { return _mm256_max_ps(q, p); }
inline __m256 vadd(__m256 p, __m256 q) { return _mm256_add_ps(p, q); }
inline __m256 vsub(__m256 p, __m256 q) { return _mm256_sub_ps(p, q); }

// The backward recursion's current block.
class BatchBeta {
 public:
  void start() {
    m_[0] = _mm256_setzero_ps();
    for (int s = 1; s < kNumStates; ++s) m_[s] = _mm256_set1_ps(kNegInf);
  }
  void load(const float* blk) {
    for (int s = 0; s < kNumStates; ++s) m_[s] = _mm256_loadu_ps(blk + s * kL);
  }
  void store(float* blk) const {
    for (int s = 0; s < kNumStates; ++s) _mm256_storeu_ps(blk + s * kL, m_[s]);
  }
  // beta[i] from beta[i+1] and step i's channel rows.
  void step(const float* sy, const float* pa) {
    const BatchGamma g(sy, pa);
    const __m256 b0 = m_[0], b1 = m_[1], b2 = m_[2], b3 = m_[3];
    const __m256 b4 = m_[4], b5 = m_[5], b6 = m_[6], b7 = m_[7];
    m_[0] = vmax(vadd(b0, g.g0), vsub(b1, g.g0));
    m_[1] = vmax(vadd(b2, g.g1), vadd(b3, g.g2));
    m_[2] = vmax(vadd(b5, g.g1), vadd(b4, g.g2));
    m_[3] = vmax(vadd(b7, g.g0), vsub(b6, g.g0));
    m_[4] = vmax(vadd(b1, g.g0), vsub(b0, g.g0));
    m_[5] = vmax(vadd(b3, g.g1), vadd(b2, g.g2));
    m_[6] = vmax(vadd(b4, g.g1), vadd(b5, g.g2));
    m_[7] = vmax(vadd(b6, g.g0), vsub(b7, g.g0));
  }

 private:
  __m256 m_[kNumStates];
};

// The forward recursion's current block, with the LLR extraction fused.
class BatchAlpha {
 public:
  void start() {
    m_[0] = _mm256_setzero_ps();
    for (int s = 1; s < kNumStates; ++s) m_[s] = _mm256_set1_ps(kNegInf);
  }
  // Step i's LLR row from (alpha[i], gamma[i], beta[i+1] in block b), then
  // alpha[i+1].
  void step(const float* sy, const float* pa, const float* b, float* out) {
    const BatchGamma g(sy, pa);
    const __m256 s00 = vadd(m_[0], g.g0), s01 = vsub(m_[0], g.g0);
    const __m256 s10 = vadd(m_[1], g.g1), s11 = vadd(m_[1], g.g2);
    const __m256 s20 = vadd(m_[2], g.g1), s21 = vadd(m_[2], g.g2);
    const __m256 s30 = vadd(m_[3], g.g0), s31 = vsub(m_[3], g.g0);
    const __m256 s40 = vadd(m_[4], g.g0), s41 = vsub(m_[4], g.g0);
    const __m256 s50 = vadd(m_[5], g.g1), s51 = vadd(m_[5], g.g2);
    const __m256 s60 = vadd(m_[6], g.g1), s61 = vadd(m_[6], g.g2);
    const __m256 s70 = vadd(m_[7], g.g0), s71 = vsub(m_[7], g.g0);
    const auto beta = [b](int s) { return _mm256_loadu_ps(b + s * kL); };
    __m256 m0 = vadd(s00, beta(0));
    m0 = vmax(m0, vadd(s10, beta(2)));
    m0 = vmax(m0, vadd(s20, beta(5)));
    m0 = vmax(m0, vadd(s30, beta(7)));
    m0 = vmax(m0, vadd(s40, beta(1)));
    m0 = vmax(m0, vadd(s50, beta(3)));
    m0 = vmax(m0, vadd(s60, beta(4)));
    m0 = vmax(m0, vadd(s70, beta(6)));
    __m256 m1 = vadd(s01, beta(1));
    m1 = vmax(m1, vadd(s11, beta(3)));
    m1 = vmax(m1, vadd(s21, beta(4)));
    m1 = vmax(m1, vadd(s31, beta(6)));
    m1 = vmax(m1, vadd(s41, beta(0)));
    m1 = vmax(m1, vadd(s51, beta(2)));
    m1 = vmax(m1, vadd(s61, beta(5)));
    m1 = vmax(m1, vadd(s71, beta(7)));
    _mm256_storeu_ps(out, _mm256_sub_ps(m0, m1));
    m_[0] = vmax(s00, s41);
    m_[1] = vmax(s01, s40);
    m_[2] = vmax(s10, s51);
    m_[3] = vmax(s11, s50);
    m_[4] = vmax(s21, s60);
    m_[5] = vmax(s20, s61);
    m_[6] = vmax(s31, s70);
    m_[7] = vmax(s30, s71);
  }

 private:
  __m256 m_[kNumStates];
};
#else
// Portable step bodies: one lane loop per step over an 8x8 block.
inline void start_block(float* m) {
  for (std::size_t b = 0; b < kL; ++b) m[b] = 0.0f;
  for (std::size_t s = 1; s < kNumStates; ++s)
    for (std::size_t b = 0; b < kL; ++b) m[s * kL + b] = kNegInf;
}

// The backward recursion's current block.
class BatchBeta {
 public:
  void start() { start_block(m_); }
  void load(const float* blk) { std::copy(blk, blk + kBlock, m_); }
  void store(float* blk) const { std::copy(m_, m_ + kBlock, blk); }
  // beta[i] from beta[i+1] and step i's channel rows; each lane reads its
  // old column before writing the new one.
  void step(const float* __restrict__ sy, const float* __restrict__ pa) {
    float* __restrict__ m = m_;
    for (std::size_t b = 0; b < kL; ++b) {
      const float x = 0.5f * sy[b];
      const float y = 0.5f * pa[b];
      const float g0 = x + y;     // u=0, z=0
      const float g1 = x - y;     // u=0, z=1
      const float g2 = y - x;     // u=1, z=0
      const float g3 = -(x + y);  // u=1, z=1
      const float b0 = m[0 * kL + b], b1 = m[1 * kL + b];
      const float b2 = m[2 * kL + b], b3 = m[3 * kL + b];
      const float b4 = m[4 * kL + b], b5 = m[5 * kL + b];
      const float b6 = m[6 * kL + b], b7 = m[7 * kL + b];
      m[0 * kL + b] = std::max(b0 + g0, b1 + g3);
      m[1 * kL + b] = std::max(b2 + g1, b3 + g2);
      m[2 * kL + b] = std::max(b5 + g1, b4 + g2);
      m[3 * kL + b] = std::max(b7 + g0, b6 + g3);
      m[4 * kL + b] = std::max(b1 + g0, b0 + g3);
      m[5 * kL + b] = std::max(b3 + g1, b2 + g2);
      m[6 * kL + b] = std::max(b4 + g1, b5 + g2);
      m[7 * kL + b] = std::max(b6 + g0, b7 + g3);
    }
  }

 private:
  alignas(32) float m_[kBlock];
};

// The forward recursion's current block, with the LLR extraction fused.
class BatchAlpha {
 public:
  void start() { start_block(m_); }
  // Step i's LLR row from (alpha[i], gamma[i], beta[i+1] in block bt),
  // then alpha[i+1].
  void step(const float* __restrict__ sy, const float* __restrict__ pa,
            const float* __restrict__ bt, float* __restrict__ out) {
    float* __restrict__ m = m_;
    for (std::size_t b = 0; b < kL; ++b) {
      const float x = 0.5f * sy[b];
      const float y = 0.5f * pa[b];
      const float g0 = x + y;
      const float g1 = x - y;
      const float g2 = y - x;
      const float g3 = -(x + y);
      const float s00 = m[0 * kL + b] + g0, s01 = m[0 * kL + b] + g3;
      const float s10 = m[1 * kL + b] + g1, s11 = m[1 * kL + b] + g2;
      const float s20 = m[2 * kL + b] + g1, s21 = m[2 * kL + b] + g2;
      const float s30 = m[3 * kL + b] + g0, s31 = m[3 * kL + b] + g3;
      const float s40 = m[4 * kL + b] + g0, s41 = m[4 * kL + b] + g3;
      const float s50 = m[5 * kL + b] + g1, s51 = m[5 * kL + b] + g2;
      const float s60 = m[6 * kL + b] + g1, s61 = m[6 * kL + b] + g2;
      const float s70 = m[7 * kL + b] + g0, s71 = m[7 * kL + b] + g3;
      float m0 = s00 + bt[0 * kL + b];
      m0 = std::max(m0, s10 + bt[2 * kL + b]);
      m0 = std::max(m0, s20 + bt[5 * kL + b]);
      m0 = std::max(m0, s30 + bt[7 * kL + b]);
      m0 = std::max(m0, s40 + bt[1 * kL + b]);
      m0 = std::max(m0, s50 + bt[3 * kL + b]);
      m0 = std::max(m0, s60 + bt[4 * kL + b]);
      m0 = std::max(m0, s70 + bt[6 * kL + b]);
      float m1 = s01 + bt[1 * kL + b];
      m1 = std::max(m1, s11 + bt[3 * kL + b]);
      m1 = std::max(m1, s21 + bt[4 * kL + b]);
      m1 = std::max(m1, s31 + bt[6 * kL + b]);
      m1 = std::max(m1, s41 + bt[0 * kL + b]);
      m1 = std::max(m1, s51 + bt[2 * kL + b]);
      m1 = std::max(m1, s61 + bt[5 * kL + b]);
      m1 = std::max(m1, s71 + bt[7 * kL + b]);
      out[b] = m0 - m1;
      m[0 * kL + b] = std::max(s00, s41);
      m[1 * kL + b] = std::max(s01, s40);
      m[2 * kL + b] = std::max(s10, s51);
      m[3 * kL + b] = std::max(s11, s50);
      m[4 * kL + b] = std::max(s21, s60);
      m[5 * kL + b] = std::max(s20, s61);
      m[6 * kL + b] = std::max(s31, s70);
      m[7 * kL + b] = std::max(s30, s71);
    }
  }

 private:
  alignas(32) float m_[kBlock];
};
#endif

// One SISO pass over K data rows (sys, par) and the 3 tail rows (tail_sys,
// tail_par), all lane-major. Transition map as in siso_decode_flat.
void siso_decode_flat_batch(const float* sys, const float* par,
                            const float* tail_sys, const float* tail_par,
                            std::size_t k, DecodeWorkspace& ws,
                            float* app_out) {
  const std::size_t windows = (k + kBatchWindow - 1) / kBatchWindow;
  grow_buffer(ws.bat_beta, (kBatchWindow + windows) * kBlock);
  float* const win = ws.bat_beta.data();
  float* const ckpt = win + kBatchWindow * kBlock;

  // Backward sweep: ckpt block w is beta at window w's end, min((w+1)W, K).
  BatchBeta beta;
  beta.start();  // terminated trellis
  for (std::size_t t = 3; t-- > 0;)
    beta.step(tail_sys + t * kL, tail_par + t * kL);
  beta.store(ckpt + (windows - 1) * kBlock);
  for (std::size_t i = k; i-- > kBatchWindow;) {
    beta.step(sys + i * kL, par + i * kL);
    if (i % kBatchWindow == 0)
      beta.store(ckpt + (i / kBatchWindow - 1) * kBlock);
  }

  // Forward sweep, window by window: win block j is beta[w0 + 1 + j].
  BatchAlpha alpha;
  alpha.start();
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t w0 = w * kBatchWindow;
    const std::size_t len = std::min(kBatchWindow, k - w0);
    beta.load(ckpt + w * kBlock);
    beta.store(win + (len - 1) * kBlock);
    for (std::size_t j = len - 1; j-- > 0;) {
      beta.step(sys + (w0 + 1 + j) * kL, par + (w0 + 1 + j) * kL);
      beta.store(win + j * kBlock);
    }
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t i = w0 + j;
      alpha.step(sys + i * kL, par + i * kL, win + j * kBlock,
                 app_out + i * kL);
    }
  }
}

// Bit b set where lane b of an a-posteriori row is negative (the hard
// decision 1): the scalar decoder's app < 0.0f per lane, NaN and -0 give 0.
inline unsigned negative_lanes(const float* row) {
#if defined(RTOPEX_SIMD) && defined(__AVX2__)
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_cmp_ps(
      _mm256_loadu_ps(row), _mm256_setzero_ps(), _CMP_LT_OQ)));
#else
  unsigned mask = 0;
  for (std::size_t b = 0; b < kL; ++b)
    mask |= static_cast<unsigned>(row[b] < 0.0f) << b;
  return mask;
#endif
}

// One lane row of a SISO input: the channel row plus the other decoder's
// extrinsic, app - in, in the scalar decoder's operation order. The
// restrict-qualified rows let the compiler vectorize the row even where the
// caller computes its addresses from the interleaver.
inline void add_extrinsic_row(float* __restrict__ out,
                              const float* __restrict__ channel,
                              const float* __restrict__ app,
                              const float* __restrict__ in) {
  for (std::size_t b = 0; b < kL; ++b)
    out[b] = channel[b] + (app[b] - in[b]);
}

}  // namespace

TurboCodeword TurboEncoder::encode(std::span<const std::uint8_t> bits) const {
  const std::size_t k = interleaver_.size();
  if (bits.size() != k)
    throw std::invalid_argument("TurboEncoder: input size != K");

  BitVector input(bits.begin(), bits.end());
  BitVector tail_sys1, tail_par1, tail_sys2, tail_par2;
  BitVector parity1 = rsc_encode(input, tail_sys1, tail_par1);

  BitVector interleaved(k);
  for (std::size_t i = 0; i < k; ++i) interleaved[i] = input[interleaver_.map(i)];
  BitVector parity2 = rsc_encode(interleaved, tail_sys2, tail_par2);

  // Tail packing (4 extra entries per stream, 12 tail bits total):
  //   systematic: x_K  x_K+1  x_K+2  x'_K
  //   parity1:    z_K  z_K+1  z_K+2  z'_K
  //   parity2:    x'_K+1  x'_K+2  z'_K+1  z'_K+2
  TurboCodeword cw;
  cw.systematic = std::move(input);
  cw.systematic.insert(cw.systematic.end(),
                       {tail_sys1[0], tail_sys1[1], tail_sys1[2], tail_sys2[0]});
  cw.parity1 = std::move(parity1);
  cw.parity1.insert(cw.parity1.end(),
                    {tail_par1[0], tail_par1[1], tail_par1[2], tail_par2[0]});
  cw.parity2 = std::move(parity2);
  cw.parity2.insert(cw.parity2.end(),
                    {tail_sys2[1], tail_sys2[2], tail_par2[1], tail_par2[2]});
  return cw;
}

TurboDecodeResult TurboDecoder::decode(
    std::span<const float> systematic, std::span<const float> parity1,
    std::span<const float> parity2,
    const std::function<bool(std::span<const std::uint8_t>)>& crc_check,
    unsigned max_iterations_override) const {
  // Value-semantics convenience wrapper; the hot path calls decode_into with
  // the caller's workspace directly.
  thread_local DecodeWorkspace ws;
  decode_into(systematic, parity1, parity2, ws, crc_check,
              max_iterations_override);
  TurboDecodeResult result;
  result.bits.assign(ws.bits.begin(),
                     ws.bits.begin() +
                         static_cast<std::ptrdiff_t>(interleaver_.size()));
  result.iterations = ws.iterations;
  result.early_terminated = ws.early_terminated;
  return result;
}

void TurboDecoder::decode_into(
    std::span<const float> systematic, std::span<const float> parity1,
    std::span<const float> parity2, DecodeWorkspace& ws,
    const std::function<bool(std::span<const std::uint8_t>)>& crc_check,
    unsigned max_iterations_override) const {
  const std::size_t k = interleaver_.size();
  if (systematic.size() != k + 4 || parity1.size() != k + 4 ||
      parity2.size() != k + 4)
    throw std::invalid_argument("TurboDecoder: bad stream length");

  grow_buffer(ws.sys1, k + 3);
  grow_buffer(ws.par1, k + 3);
  grow_buffer(ws.sys2, k + 3);
  grow_buffer(ws.par2, k + 3);
  grow_buffer(ws.extrinsic1, k);
  grow_buffer(ws.extrinsic2, k);
  grow_buffer(ws.app, k);
  grow_buffer(ws.bits, k);
  float* sys1 = ws.sys1.data();
  float* par1 = ws.par1.data();
  float* sys2 = ws.sys2.data();
  float* par2 = ws.par2.data();
  float* extrinsic1 = ws.extrinsic1.data();
  float* extrinsic2 = ws.extrinsic2.data();
  float* app = ws.app.data();
  std::uint8_t* bits = ws.bits.data();

  // Tail unpacking identical to decode_reference (see encoder packing).
  for (std::size_t i = 0; i < k; ++i) par1[i] = parity1[i];
  for (std::size_t i = 0; i < 3; ++i) {
    sys1[k + i] = systematic[k + i];
    par1[k + i] = parity1[k + i];
  }
  for (std::size_t i = 0; i < k; ++i) par2[i] = parity2[i];
  sys2[k] = systematic[k + 3];
  sys2[k + 1] = parity2[k];
  sys2[k + 2] = parity2[k + 1];
  par2[k] = parity1[k + 3];
  par2[k + 1] = parity2[k + 2];
  par2[k + 2] = parity2[k + 3];

  for (std::size_t i = 0; i < k; ++i) extrinsic2[i] = 0.0f;
  for (std::size_t i = 0; i < k; ++i) bits[i] = 0;
  ws.iterations = 0;
  ws.early_terminated = false;

  const std::size_t* fwd = interleaver_.forward_map().data();
  const unsigned lm = max_iterations_override == 0
                          ? max_iterations_
                          : std::min(max_iterations_, max_iterations_override);
  for (unsigned iter = 1; iter <= lm; ++iter) {
    // --- SISO 1 ---
    for (std::size_t i = 0; i < k; ++i)
      sys1[i] = systematic[i] + extrinsic2[i];
    siso_decode_flat(sys1, par1, k, ws, app);
    for (std::size_t i = 0; i < k; ++i) extrinsic1[i] = app[i] - sys1[i];

    // --- SISO 2 (interleaved domain, gathered via the precomputed map) ---
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = fwd[i];
      sys2[i] = systematic[src] + extrinsic1[src];
    }
    siso_decode_flat(sys2, par2, k, ws, app);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = fwd[i];
      extrinsic2[src] = app[i] - sys2[i];
      bits[src] = app[i] < 0.0f ? 1 : 0;
    }
    ws.iterations = iter;

    if (crc_check && crc_check(std::span<const std::uint8_t>(bits, k))) {
      ws.early_terminated = true;
      break;
    }
  }
}

void TurboDecoder::decode_batch_into(
    const TurboBatchRows& rows, std::size_t n, DecodeWorkspace& ws,
    const std::function<bool(std::size_t lane,
                             std::span<const std::uint8_t>)>& crc_check,
    unsigned max_iterations_override) const {
  const std::size_t k = interleaver_.size();
  if (n == 0 || n > kL)
    throw std::invalid_argument("decode_batch_into: 1..8 lanes required");
  if (!rows.systematic || !rows.parity1 || !rows.parity2)
    throw std::invalid_argument("decode_batch_into: null channel rows");

  grow_buffer(ws.bat_sys1, k * kL);
  grow_buffer(ws.bat_sys2, k * kL);
  grow_buffer(ws.bat_app, k * kL);
  grow_buffer(ws.bat_bits, k * kL);
  grow_buffer(ws.bat_signs, k);
  const float* __restrict__ sysc = rows.systematic;
  const float* __restrict__ par1 = rows.parity1;
  const float* __restrict__ par2 = rows.parity2;
  float* __restrict__ sys1 = ws.bat_sys1.data();
  float* __restrict__ sys2 = ws.bat_sys2.data();
  float* __restrict__ app = ws.bat_app.data();
  std::uint8_t* __restrict__ signs = ws.bat_signs.data();

  // SISO 1 reads its parity and both tails straight from the channel rows
  // (rows K..K+2). SISO 2's tail rows are unpacked into a block of their
  // own, exactly as decode_into unpacks them (see encoder packing): sys2
  // tail x'_K, x'_K+1, x'_K+2, then par2 tail z'_K, z'_K+1, z'_K+2.
  alignas(32) float tail2[2 * 3 * kL];
  const float* const tail2_src[6] = {sysc + (k + 3) * kL, par2 + k * kL,
                                     par2 + (k + 1) * kL, par1 + (k + 3) * kL,
                                     par2 + (k + 2) * kL, par2 + (k + 3) * kL};
  for (std::size_t r = 0; r < 6; ++r)
    std::copy(tail2_src[r], tail2_src[r] + kL, tail2 + r * kL);

  for (std::size_t b = 0; b < n; ++b) {
    std::uint8_t* bits = ws.bat_bits.data() + b * k;
    for (std::size_t i = 0; i < k; ++i) bits[i] = 0;
  }
  ws.bat_iterations.fill(0);
  ws.bat_early_terminated.fill(false);

  std::array<bool, kL> active{};
  for (std::size_t b = 0; b < n; ++b) active[b] = true;
  std::size_t num_active = n;

  const std::size_t* fwd = interleaver_.forward_map().data();
  const unsigned lm = max_iterations_override == 0
                          ? max_iterations_
                          : std::min(max_iterations_, max_iterations_override);
  // The extrinsics never get rows of their own: each is added to the
  // channel row where it is produced, with the scalar decoder's operations
  // in its order (sys + (app - sys_in)). The first SISO 1 input adds the
  // all-zero extrinsic 2 as a literal 0.0f, which rounds exactly as the
  // scalar decoder's zeroed buffer does (-0.0f + 0.0f is +0.0f).
  for (std::size_t i = 0; i < k * kL; ++i) sys1[i] = sysc[i] + 0.0f;
  for (unsigned iter = 1; iter <= lm && num_active > 0; ++iter) {
    // --- SISO 1 ---
    siso_decode_flat_batch(sys1, par1, sysc + k * kL, par1 + k * kL, k, ws,
                           app);

    // --- SISO 2 (interleaved domain; the gather moves whole rows, so each
    // QPP lookup serves all 8 lanes with contiguous row loads). Its input
    // is the channel plus extrinsic 1, app - sys1. ---
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = fwd[i] * kL;
      add_extrinsic_row(sys2 + i * kL, sysc + src, app + src, sys1 + src);
    }
    siso_decode_flat_batch(sys2, par2, tail2, tail2 + 3 * kL, k, ws, app);
    // The scatter writes the next SISO 1 input, the channel plus extrinsic
    // 2 (app - sys2), and takes every lane's hard decision at once: bit b
    // of signs[j] is lane b's decision for data position j.
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = fwd[i];
      const float* ap = app + i * kL;
      add_extrinsic_row(sys1 + src * kL, sysc + src * kL, ap, sys2 + i * kL);
      signs[src] = static_cast<std::uint8_t>(negative_lanes(ap));
    }

    // Expand and CRC-check each still-active lane; a lane whose CRC passes
    // freezes with exactly the bits and iteration count the scalar
    // decode_into would have returned for that block.
    for (std::size_t b = 0; b < n; ++b) {
      if (!active[b]) continue;
      std::uint8_t* bits = ws.bat_bits.data() + b * k;
      for (std::size_t j = 0; j < k; ++j)
        bits[j] = static_cast<std::uint8_t>((signs[j] >> b) & 1u);
      ws.bat_iterations[b] = iter;
      if (crc_check &&
          crc_check(b, std::span<const std::uint8_t>(bits, k))) {
        ws.bat_early_terminated[b] = true;
        active[b] = false;
        --num_active;
      }
    }
  }
}

void TurboDecoder::decode_batch_into(
    std::span<const TurboBatchLane> lanes, DecodeWorkspace& ws,
    const std::function<bool(std::size_t lane,
                             std::span<const std::uint8_t>)>& crc_check,
    unsigned max_iterations_override) const {
  const std::size_t kd = interleaver_.size() + 4;
  const std::size_t n = lanes.size();
  if (n == 0 || n > kL)
    throw std::invalid_argument("decode_batch_into: 1..8 lanes required");
  for (const TurboBatchLane& lane : lanes)
    if (lane.systematic.size() != kd || lane.parity1.size() != kd ||
        lane.parity2.size() != kd)
      throw std::invalid_argument("TurboDecoder: bad stream length");

  grow_buffer(ws.bat_rows, 3 * kd * kL);
  float* const rows = ws.bat_rows.data();
  const auto fill = [&](auto stream, float* block) {
    for (std::size_t i = 0; i < kd; ++i)
      for (std::size_t b = 0; b < kL; ++b)
        block[i * kL + b] = b < n ? (lanes[b].*stream)[i] : 0.0f;
  };
  fill(&TurboBatchLane::systematic, rows);
  fill(&TurboBatchLane::parity1, rows + kd * kL);
  fill(&TurboBatchLane::parity2, rows + 2 * kd * kL);
  decode_batch_into(
      TurboBatchRows{rows, rows + kd * kL, rows + 2 * kd * kL}, n, ws,
      crc_check, max_iterations_override);
}

TurboDecodeResult TurboDecoder::decode_reference(
    std::span<const float> systematic, std::span<const float> parity1,
    std::span<const float> parity2,
    const std::function<bool(std::span<const std::uint8_t>)>& crc_check,
    unsigned max_iterations_override) const {
  const std::size_t k = interleaver_.size();
  if (systematic.size() != k + 4 || parity1.size() != k + 4 ||
      parity2.size() != k + 4)
    throw std::invalid_argument("TurboDecoder: bad stream length");

  // Unpack tails (see encoder packing).
  // Decoder 1 operates on [sys(K), x_K..x_K+2] and [par1(K), z_K..z_K+2].
  LlrVector sys1(k + 3), par1(k + 3);
  for (std::size_t i = 0; i < k; ++i) {
    sys1[i] = systematic[i];
    par1[i] = parity1[i];
  }
  for (std::size_t i = 0; i < 3; ++i) {
    sys1[k + i] = systematic[k + i];
    par1[k + i] = parity1[k + i];
  }
  // Decoder 2 operates on interleaved systematic plus its own tails:
  // x'_K = systematic[k+3], x'_K+1/2 = parity2[k], parity2[k+1];
  // z'_K = parity1[k+3], z'_K+1/2 = parity2[k+2], parity2[k+3].
  LlrVector sys2(k + 3), par2(k + 3);
  for (std::size_t i = 0; i < k; ++i) par2[i] = parity2[i];
  sys2[k] = systematic[k + 3];
  sys2[k + 1] = parity2[k];
  sys2[k + 2] = parity2[k + 1];
  par2[k] = parity1[k + 3];
  par2[k + 1] = parity2[k + 2];
  par2[k + 2] = parity2[k + 3];

  LlrVector extrinsic2(k, 0.0f);  // from decoder 2, deinterleaved
  TurboDecodeResult result;
  result.bits.assign(k, 0);

  const unsigned lm = max_iterations_override == 0
                          ? max_iterations_
                          : std::min(max_iterations_, max_iterations_override);
  for (unsigned iter = 1; iter <= lm; ++iter) {
    // --- SISO 1 ---
    for (std::size_t i = 0; i < k; ++i)
      sys1[i] = systematic[i] + extrinsic2[i];
    const LlrVector app1 = siso_decode(sys1, par1, k);
    LlrVector extrinsic1(k);
    for (std::size_t i = 0; i < k; ++i)
      extrinsic1[i] = app1[i] - sys1[i];

    // --- SISO 2 (interleaved domain) ---
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = interleaver_.map(i);
      sys2[i] = systematic[src] + extrinsic1[src];
    }
    const LlrVector app2 = siso_decode(sys2, par2, k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t src = interleaver_.map(i);
      extrinsic2[src] = app2[i] - sys2[i];
    }

    // Hard decision from decoder 2's a-posteriori, deinterleaved.
    for (std::size_t i = 0; i < k; ++i)
      result.bits[interleaver_.map(i)] = app2[i] < 0.0f ? 1 : 0;
    result.iterations = iter;

    if (crc_check && crc_check(result.bits)) {
      result.early_terminated = true;
      break;
    }
  }
  return result;
}

}  // namespace rtopex::phy
