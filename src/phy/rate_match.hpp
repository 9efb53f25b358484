// Circular-buffer rate matching (36.212 §5.1.4 style).
//
// Each turbo stream is passed through a 32-column sub-block interleaver,
// the three interleaved streams are packed into a circular buffer
// (systematic first, then parity1/parity2 interlaced), and E bits are read
// out starting at a redundancy-version-dependent offset. The receiver-side
// dematcher inverts the mapping, soft-combining repeated bits and leaving
// zero LLRs at punctured positions.
//
// Simplification vs. 3GPP (documented in DESIGN.md): the same column
// permutation is used for all three streams (3GPP offsets the second parity
// stream by one) — irrelevant to coding performance at the fidelity level
// the scheduler study needs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/turbo.hpp"

namespace rtopex::phy {

class RateMatcher {
 public:
  /// `block_size` is the turbo block size K; streams have K + 4 entries.
  explicit RateMatcher(std::size_t block_size);

  std::size_t block_size() const { return kd_ - 4; }
  /// Circular buffer length (3 * Kpi, including dummy padding).
  std::size_t buffer_size() const { return cb_map_.size(); }

  /// Selects `e` coded bits for transmission.
  BitVector match(const TurboCodeword& cw, std::size_t e,
                  unsigned redundancy_version = 0) const;

  struct Dematched {
    LlrVector systematic;  ///< K + 4
    LlrVector parity1;     ///< K + 4
    LlrVector parity2;     ///< K + 4
  };

  /// Scatters `e` received LLRs back onto the three streams.
  Dematched dematch(std::span<const float> llrs,
                    unsigned redundancy_version = 0) const;

  /// Allocation-free dematch: zero-fills the three spans (each K + 4 long)
  /// and soft-combines the received LLRs into them. The circular buffer is
  /// walked via precomputed stream/offset tables, so the per-bit work is a
  /// single indexed accumulate with no division.
  void dematch_into(std::span<const float> llrs, unsigned redundancy_version,
                    std::span<float> systematic, std::span<float> parity1,
                    std::span<float> parity2) const;

  /// Row-layout dematch of up to kTurboBatchLanes code blocks at once, for
  /// the batched decoder: zero-fills three lane-major row blocks (K + 4
  /// rows of kTurboBatchLanes floats: systematic, parity 1, parity 2) and
  /// soft-combines lanes[b] into column b with the span form's walk, so
  /// each column holds exactly the span form's floats and columns past
  /// lanes.size() stay zero. Each walk position serves every lane from one
  /// row, so a position costs one row access rather than one per lane.
  void dematch_rows(std::span<const std::span<const float>> lanes,
                    unsigned redundancy_version, float* systematic,
                    float* parity1, float* parity2) const;

 private:
  std::size_t start_index(unsigned rv) const;

  std::size_t kd_ = 0;    ///< stream length K + 4.
  std::size_t rows_ = 0;  ///< sub-block interleaver rows.
  /// Circular-buffer position -> (stream * kd_ + index), or -1 for a dummy.
  std::vector<std::int32_t> cb_map_;
  /// The same mapping split for branch-light kernels: stream index (0..2,
  /// or 3 for a dummy) and within-stream offset per buffer position.
  std::vector<std::uint8_t> cb_stream_;
  std::vector<std::uint32_t> cb_off_;
  /// Dummy-compressed walk order: the non-dummy positions in cyclic order,
  /// so the dematch hot loop runs exactly `e` iterations with no consume
  /// branch. `nd_prefix_[p]` counts non-dummies before buffer position `p`,
  /// mapping a redundancy-version start index into the compressed tables.
  std::vector<std::uint8_t> cbc_stream_;
  std::vector<std::uint32_t> cbc_off_;
  std::vector<std::uint32_t> nd_prefix_;
};

}  // namespace rtopex::phy
