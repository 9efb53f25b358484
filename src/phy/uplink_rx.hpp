// Uplink receiver with the paper's task/subtask decomposition (§2.2):
//
//   taskFFT    — one subtask per (antenna, OFDM symbol): CP strip + FFT +
//                subcarrier extraction. 14 * N subtasks.
//   taskDemod  — serial prepare (DMRS channel estimation + noise estimate),
//                then one subtask per data symbol: MRC equalization across
//                antennas + max-log LLR demapping. 12 subtasks.
//   taskDecode — serial prepare (descrambling), then one subtask per code
//                block: rate dematching + iterative turbo decode with CRC
//                early termination. C subtasks (6 at MCS 27 / 10 MHz).
//   finalize   — desegmentation + transport-block CRC: ACK or NACK.
//
// Subtasks within a stage write disjoint state in the Job, so a scheduler
// (or RT-OPEX migration) may execute them concurrently on different cores;
// stages must still run in order (precedence constraint, paper Fig. 5).
#pragma once

#include <memory>
#include <span>

#include "phy/uplink_tx.hpp"
#include "phy/workspace.hpp"

namespace rtopex::phy {

struct UplinkRxResult {
  bool crc_ok = false;           ///< transport-block CRC24A (ACK vs NACK).
  unsigned iterations = 0;       ///< max turbo iterations over code blocks (L).
  double mean_iterations = 0.0;  ///< average over code blocks.
  std::vector<bool> cb_crc_ok;   ///< per-code-block CRC.
  BitVector payload;             ///< decoded transport block (no CRC).
};

/// All intermediate state for one subframe decode. Reusable across
/// subframes. Distinct subtasks of one stage touch disjoint members and may
/// run concurrently; everything else is single-threaded.
struct UplinkRxJob {
  unsigned mcs = 0;
  std::uint32_t subframe_index = 0;
  /// 0 = decode at the configured Lm; non-zero caps the turbo iterations
  /// below Lm for this subframe only (degraded mode).
  unsigned iteration_cap = 0;

  /// N streams of time samples: a view of the caller's buffers, bound by
  /// UplinkRxProcessor::begin and read by the FFT stage.
  std::span<const IqVector> antenna_samples;
  std::vector<IqVector> grid;             ///< [antenna*14 + symbol] -> nsc REs.
  std::vector<IqVector> channel_est;      ///< per antenna, nsc gains.
  float noise_var = 0.0f;                 ///< per-RE noise power estimate.
  IqVector equalized;                     ///< 12 * nsc data REs.
  std::vector<float> post_eq_noise;       ///< per data RE.
  LlrVector llrs;                         ///< G soft bits, descrambled in-place.

  struct CodeBlockResult {
    BitVector bits;
    unsigned iterations = 0;
    bool crc_ok = false;
  };
  std::vector<CodeBlockResult> cb_results;  ///< one per code block.
  /// Results of the blocks beyond the current MCS's count: begin() parks
  /// them here, bit buffers included, and brings them back when a later
  /// MCS has more blocks, so a reused job never reallocates them.
  std::vector<CodeBlockResult> cb_spare;
};

class UplinkRxProcessor {
 public:
  explicit UplinkRxProcessor(const UplinkConfig& config);
  ~UplinkRxProcessor();

  UplinkRxProcessor(const UplinkRxProcessor&) = delete;
  UplinkRxProcessor& operator=(const UplinkRxProcessor&) = delete;

  using Job = UplinkRxJob;

  /// Creates a job sized for the worst-case MCS (block results included).
  Job make_job() const;

  /// Binds a received subframe to the job and resets per-subframe state.
  /// `antenna_samples` must hold config.num_antennas streams of
  /// 14 * (cp + fft) samples each. The job keeps a view, not a copy: the
  /// caller keeps the samples alive and unchanged until the job's FFT stage
  /// has ended (every run_fft_subtask has returned).
  void begin(Job& job, std::span<const IqVector> antenna_samples, unsigned mcs,
             std::uint32_t subframe_index) const;

  // Stage methods come in two forms: an explicit-workspace overload (the
  // zero-allocation hot path — all kernel scratch lives in `ws` and is
  // reused across subframes) and a convenience overload that uses this
  // thread's workspace. One workspace per executing thread: subtasks of one
  // job may run concurrently on different cores (RT-OPEX migration), so the
  // workspace belongs to the thread, never to the job.

  // --- Stage A: FFT ---
  std::size_t fft_subtask_count() const;
  void run_fft_subtask(Job& job, std::size_t index) const;
  void run_fft_subtask(Job& job, std::size_t index, DecodeWorkspace& ws) const;

  // --- Stage B: demod (workspace-free: writes straight into the job) ---
  void demod_prepare(Job& job) const;
  std::size_t demod_subtask_count() const { return kSymbolsPerSubframe - 2; }
  void run_demod_subtask(Job& job, std::size_t index) const;

  // --- Stage C: decode ---
  void decode_prepare(Job& job) const;
  void decode_prepare(Job& job, DecodeWorkspace& ws) const;
  std::size_t decode_subtask_count(const Job& job) const;
  void run_decode_subtask(Job& job, std::size_t index) const;
  void run_decode_subtask(Job& job, std::size_t index,
                          DecodeWorkspace& ws) const;

  /// Batched decode stage: all code blocks of the subframe through the SoA
  /// batch decoder, up to kTurboBatchLanes blocks per SISO pass.
  /// Bit-identical to running run_decode_subtask over every index (the
  /// differential tests assert it) — this is the throughput stage path
  /// NodeRuntime workers take when the decode stage is not being migrated;
  /// RT-OPEX migration keeps claiming per-block subtasks.
  void run_decode_batch(Job& job, DecodeWorkspace& ws) const;

  /// Cross-subframe batched decode: every code block of every job, grouped
  /// by (block size, iteration cap) so blocks from different basestations
  /// fill out SoA lanes that a single subframe would leave empty (a batch
  /// SISO pass costs the same whether 3 or 8 lanes carry real blocks).
  /// decode_prepare must already have run on each job. At most
  /// kMaxBatchJobs jobs.
  void run_decode_batch(std::span<Job* const> jobs, DecodeWorkspace& ws) const;
  static constexpr std::size_t kMaxBatchJobs = 16;

  // --- Workspace pre-warm ---
  /// The MCS in `mcs_set` with the largest code blocks (the first of
  /// equals): the one a workspace pre-warm must decode. K does not grow
  /// with MCS: at 10 MHz, MCS 27 has K = 5312 while MCS 26 has 6080.
  unsigned largest_block_mcs(std::span<const unsigned> mcs_set) const;
  /// Grows `ws` to its working size for subframes whose blocks are no
  /// larger than those of the given one (pick it with largest_block_mcs),
  /// so that neither decode path grows it later: the full chain once, its
  /// blocks through run_decode_batch as one full 8-lane batch (repeating
  /// the subframe as needed), one block through run_decode_subtask, and the
  /// grouping scratch for a kMaxBatchJobs span of any MCS.
  void prewarm(DecodeWorkspace& ws, std::span<const IqVector> antenna_samples,
               unsigned mcs, std::uint32_t subframe_index) const;

  // --- Finalize ---
  UplinkRxResult finalize(Job& job) const;
  /// Allocation-free finalize: desegmentation goes through ws.tb_with_crc
  /// and `result`'s buffers are reused (clear + refill within capacity).
  void finalize_into(Job& job, DecodeWorkspace& ws,
                     UplinkRxResult& result) const;

  /// The calling thread's lazily-created workspace (used by the
  /// convenience overloads; also what migrated-chunk host threads share
  /// across whatever subtasks land on them).
  static DecodeWorkspace& thread_workspace();

  /// Convenience: the full chain, serially, on a fresh job.
  UplinkRxResult process(std::span<const IqVector> antenna_samples,
                         unsigned mcs, std::uint32_t subframe_index) const;

  const UplinkConfig& config() const { return config_; }

 private:
  UplinkConfig config_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtopex::phy
