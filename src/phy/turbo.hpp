// LTE-style rate-1/3 turbo codec.
//
// Two 8-state recursive systematic convolutional (RSC) constituent encoders
// with generators g0 = 1 + D^2 + D^3 (feedback) and g1 = 1 + D + D^3
// (parity), coupled by a QPP interleaver, with explicit trellis termination
// (12 tail bits). The decoder is an iterative max-log-MAP (BCJR) with
// optional early termination via a caller-supplied CRC check — the source of
// the non-deterministic iteration count L in the paper's Eq. (1).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "phy/crc.hpp"
#include "phy/qpp_interleaver.hpp"
#include "phy/workspace.hpp"

namespace rtopex::phy {

using LlrVector = std::vector<float>;

/// Encoded streams for one code block of size K. Each stream has K + 4
/// entries; the last four of each carry the 12 termination (tail) bits
/// (see turbo.cpp for the packing).
struct TurboCodeword {
  BitVector systematic;  ///< K + 4
  BitVector parity1;     ///< K + 4
  BitVector parity2;     ///< K + 4

  std::size_t block_size() const { return systematic.size() - 4; }
};

class TurboEncoder {
 public:
  explicit TurboEncoder(const QppInterleaver& interleaver)
      : interleaver_(interleaver) {}

  /// Encodes exactly interleaver.size() bits.
  TurboCodeword encode(std::span<const std::uint8_t> bits) const;

 private:
  const QppInterleaver& interleaver_;
};

struct TurboDecodeResult {
  BitVector bits;           ///< K hard decisions.
  unsigned iterations = 0;  ///< full (SISO1+SISO2) iterations executed.
  bool early_terminated = false;  ///< CRC passed before max_iterations.
};

/// Lane width of the batched SoA decoder: one SISO pass advances this many
/// code blocks per instruction stream. Eight lanes fill one AVX2 vector
/// (two NEON vectors); callers may submit fewer blocks — the ragged tail
/// lanes are padded internally and cost nothing extra.
inline constexpr std::size_t kTurboBatchLanes = 8;

/// One code block's channel LLR streams for a batched decode. All lanes of
/// one decode_batch_into call must share the decoder's K (same interleaver);
/// each span is K + 4 entries, packed like TurboCodeword.
struct TurboBatchLane {
  std::span<const float> systematic;
  std::span<const float> parity1;
  std::span<const float> parity2;
};

/// The channel LLRs of a batched decode in lane-major rows: three blocks of
/// K + 4 rows (systematic, parity 1, parity 2, each packed like
/// TurboCodeword), where element [i * kTurboBatchLanes + b] is position i
/// of lane b. This is the layout RateMatcher::dematch_rows writes; lanes
/// past the batch's width must hold zeros.
struct TurboBatchRows {
  const float* systematic;
  const float* parity1;
  const float* parity2;
};

class TurboDecoder {
 public:
  /// `max_iterations` is the paper's Lm (default 4, as in §2.1).
  explicit TurboDecoder(const QppInterleaver& interleaver,
                        unsigned max_iterations = 4)
      : interleaver_(interleaver), max_iterations_(max_iterations) {}

  /// Decodes from channel LLRs (positive LLR == bit 0 more likely... see
  /// convention note below). Each LLR vector must be K + 4 long, matching
  /// TurboCodeword streams; punctured positions carry 0.
  ///
  /// LLR convention: llr = log(P(bit=0)/P(bit=1)) — the demapper and the
  /// decoder agree on this throughout the PHY.
  ///
  /// `crc_check` (may be empty) is invoked on the K hard-decision bits after
  /// every iteration; returning true stops decoding early.
  ///
  /// `max_iterations_override`, when non-zero, caps the iteration count below
  /// the configured Lm for this call only — the degraded-mode knob: a slack
  /// check that cannot fit the full-quality decode shrinks the cap instead of
  /// dropping the subframe.
  TurboDecodeResult decode(
      std::span<const float> systematic, std::span<const float> parity1,
      std::span<const float> parity2,
      const std::function<bool(std::span<const std::uint8_t>)>& crc_check = {},
      unsigned max_iterations_override = 0) const;

  /// Zero-allocation decode: all intermediates (SISO inputs, extrinsics,
  /// forward and backward metrics, hard decisions) live in `ws` and only
  /// ever grow. Results land in ws.bits (first K entries), ws.iterations
  /// and ws.early_terminated. The flattened SISO produces bit-identical
  /// hard decisions and iteration counts to decode_reference (asserted by
  /// the kernel differential tests).
  void decode_into(
      std::span<const float> systematic, std::span<const float> parity1,
      std::span<const float> parity2, DecodeWorkspace& ws,
      const std::function<bool(std::span<const std::uint8_t>)>& crc_check = {},
      unsigned max_iterations_override = 0) const;

  /// Batched SoA decode of 1..kTurboBatchLanes code blocks from their
  /// lane-major channel rows (read only, so repeated decodes of the same
  /// rows see the same inputs): the state metrics advance every block per
  /// trellis step with vertical, per-lane-independent arithmetic. Because
  /// each lane performs exactly the operations of decode_into in the same
  /// association order, every lane's hard decisions, iteration count and
  /// early-termination flag are bit-identical to a scalar decode_into of
  /// that block alone (asserted by the kernel differential tests, including
  /// ragged tails of 1..7 lanes).
  ///
  /// `crc_check` (may be empty) is called per lane after every iteration;
  /// a lane whose CRC passes is frozen — its outputs stop updating — while
  /// the remaining lanes keep iterating (wall time is governed by the
  /// slowest lane, as on a single core it would be anyway).
  ///
  /// Results land in ws.bat_bits (lane b occupies [b*K, (b+1)*K)),
  /// ws.bat_iterations[b] and ws.bat_early_terminated[b]. All scratch is
  /// grow-only workspace state: zero allocations once warm.
  void decode_batch_into(
      const TurboBatchRows& rows, std::size_t lanes, DecodeWorkspace& ws,
      const std::function<bool(std::size_t lane,
                               std::span<const std::uint8_t>)>& crc_check = {},
      unsigned max_iterations_override = 0) const;

  /// The same decode from per-lane streams: fills ws.bat_rows with their
  /// lane-major rows, then runs the row form above.
  void decode_batch_into(
      std::span<const TurboBatchLane> lanes, DecodeWorkspace& ws,
      const std::function<bool(std::size_t lane,
                               std::span<const std::uint8_t>)>& crc_check = {},
      unsigned max_iterations_override = 0) const;

  /// The original branchy per-lambda-gamma implementation, retained as the
  /// differential reference for decode / decode_into.
  TurboDecodeResult decode_reference(
      std::span<const float> systematic, std::span<const float> parity1,
      std::span<const float> parity2,
      const std::function<bool(std::span<const std::uint8_t>)>& crc_check = {},
      unsigned max_iterations_override = 0) const;

  unsigned max_iterations() const { return max_iterations_; }

 private:
  const QppInterleaver& interleaver_;
  unsigned max_iterations_;
};

}  // namespace rtopex::phy
