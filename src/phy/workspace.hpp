// Per-thread scratch for the uplink receive chain.
//
// Every hot-path kernel (FFT, demapper, rate dematcher, turbo SISO,
// descrambler, desegmentation) writes its intermediates into a
// DecodeWorkspace instead of allocating. Buffers only ever grow, so after
// one warm-up subframe a steady-state subframe performs zero heap
// allocations (asserted by tests/phy/test_zero_alloc.cpp with a counting
// allocator).
//
// Ownership rule: one workspace per executing thread. Subtasks of one
// UplinkRxJob may run concurrently on different cores (including migrated
// RT-OPEX chunks); each executing thread must bring its own workspace.
// UplinkRxProcessor's no-workspace overloads use a thread_local instance
// (UplinkRxProcessor::thread_workspace()), which is what the NodeRuntime
// workers and migrated-chunk hosts reuse across subframes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace rtopex::phy {

struct TurboDecodeResult;

/// Grow-only resize: never shrinks, so steady-state reuse never allocates.
template <typename T>
inline void grow_buffer(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// Bounded LRU cache of Gold scrambling sequences, keyed by c_init. One
/// basestation cycles through at most 10 c_init values (subframe mod 10),
/// so kEntries covers a worker's own basestation entirely and leaves room
/// for batched neighbours; a worker serving many basestations evicts in LRU
/// order instead of growing. Each entry's buffer is grow-only but capped by
/// the longest sequence ever requested, so total retained memory is bounded
/// by kEntries * max_length regardless of how many distinct c_init values a
/// long cluster run touches (asserted by the kernel regression tests).
struct ScrambleCache {
  static constexpr std::size_t kEntries = 16;

  struct Entry {
    std::uint32_t c_init = 0;
    std::size_t len = 0;     ///< valid prefix of seq for c_init.
    std::uint64_t stamp = 0; ///< LRU clock value of the last hit.
    bool valid = false;
    std::vector<std::uint8_t> seq;  ///< grow-only sequence storage.
  };

  std::array<Entry, kEntries> entries;
  std::uint64_t clock = 0;
  /// Generator shift-register scratch, shared across entries (grow-only).
  std::vector<std::uint8_t> x1, x2;

  /// Total sequence bytes retained — the quantity the bounded-memory
  /// regression test asserts on.
  std::size_t retained_bytes() const {
    std::size_t total = 0;
    for (const Entry& e : entries) total += e.seq.capacity();
    return total;
  }
};

struct DecodeWorkspace {
  // --- FFT: structure-of-arrays transform scratch (FftPlan::size floats).
  std::vector<float> fft_re;
  std::vector<float> fft_im;

  // --- Rate dematcher output streams (K + 4 each).
  std::vector<float> dm_systematic;
  std::vector<float> dm_parity1;
  std::vector<float> dm_parity2;

  // --- Turbo decoder scratch (K data bits, K + 3 trellis steps).
  std::vector<float> sys1, par1;    ///< SISO 1 inputs (K + 3).
  std::vector<float> sys2, par2;    ///< SISO 2 inputs (K + 3).
  std::vector<float> extrinsic1;    ///< decoder 1 -> 2 (K).
  std::vector<float> extrinsic2;    ///< decoder 2 -> 1, deinterleaved (K).
  std::vector<float> app;           ///< SISO a-posteriori output (K).
  std::vector<float> alpha;         ///< forward metrics (8*(K+4)).
  std::vector<float> beta;          ///< backward metrics (8*(K+4)).
  std::vector<std::uint8_t> bits;   ///< hard decisions (K).
  unsigned iterations = 0;          ///< of the last decode_into call.
  bool early_terminated = false;    ///< of the last decode_into call.

  // --- Batched SoA turbo decoder scratch (decode_batch_into). All float
  // buffers hold lane-major rows of kTurboBatchLanes: element [i*8 + b] is
  // trellis position i of lane (code block) b. Sizes below are in rows; at
  // K = 6144 the whole set is about 1.3 MB, inside a 2 MB L2.
  std::vector<float> bat_rows;      ///< channel rows: systematic, parity 1
                                    ///< and parity 2 blocks of K+4 rows
                                    ///< each, written by
                                    ///< RateMatcher::dematch_rows; the
                                    ///< decoder only reads them.
  std::vector<float> bat_sys1, bat_sys2;  ///< SISO 1/2 systematic input
                                          ///< rows (K); parities and SISO
                                          ///< 1's tails are bat_rows rows.
  std::vector<float> bat_app;       ///< SISO a-posteriori rows (K).
  std::vector<float> bat_beta;      ///< backward metrics, 8 rows (one 8x8
                                    ///< block) per step: one window of 64
                                    ///< steps, then one checkpoint block per
                                    ///< window (ceil(K/64)).
  std::vector<std::uint8_t> bat_bits;  ///< lane-contiguous decisions (K per
                                       ///< lane, lane b at [b*K, (b+1)*K)).
  std::vector<std::uint8_t> bat_signs;  ///< per-position decision masks (K):
                                        ///< bit b is lane b's decision.
  std::array<unsigned, 8> bat_iterations{};      ///< per-lane iterations.
  std::array<bool, 8> bat_early_terminated{};    ///< per-lane CRC pass.
  /// Cross-subframe batching scratch: (job, block) pairs grouped by K.
  std::vector<std::uint32_t> bat_group;

  // --- Descrambler: bounded LRU sequence cache. A steady-state worker
  // cycles through its basestation's (at most 10) c_init values and pays
  // generation once per value; eviction keeps memory bounded on workers
  // that serve many basestations.
  ScrambleCache scramble;

  // --- Finalize: reassembled transport block (payload + CRC24A bits).
  std::vector<std::uint8_t> tb_with_crc;
};

}  // namespace rtopex::phy
