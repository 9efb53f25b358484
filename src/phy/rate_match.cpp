#include "phy/rate_match.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace rtopex::phy {
namespace {

// 36.212 Table 5.1.4-1 inter-column permutation.
constexpr std::array<unsigned, 32> kColumnPerm = {
    0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30,
    1, 17, 9, 25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31};

}  // namespace

RateMatcher::RateMatcher(std::size_t block_size) {
  kd_ = block_size + 4;
  rows_ = (kd_ + 31) / 32;
  const std::size_t kpi = rows_ * 32;
  const std::size_t nd = kpi - kd_;  // dummies, padded at the front

  // Sub-block interleaver output order for one stream: read the (rows x 32)
  // row-major matrix [dummy*nd, d_0..d_{kd-1}] column-wise in permuted
  // column order. interleaved[j] = original stream index or -1 (dummy).
  std::vector<std::int32_t> perm(kpi);
  std::size_t j = 0;
  for (const unsigned col : kColumnPerm) {
    for (std::size_t row = 0; row < rows_; ++row) {
      const std::size_t flat = row * 32 + col;
      perm[j++] = flat < nd ? -1 : static_cast<std::int32_t>(flat - nd);
    }
  }

  // Circular buffer: v0 then v1/v2 interlaced.
  cb_map_.resize(3 * kpi);
  for (std::size_t i = 0; i < kpi; ++i) {
    cb_map_[i] = perm[i] < 0 ? -1 : perm[i];  // stream 0
    cb_map_[kpi + 2 * i] =
        perm[i] < 0 ? -1 : static_cast<std::int32_t>(kd_) + perm[i];
    cb_map_[kpi + 2 * i + 1] =
        perm[i] < 0 ? -1 : 2 * static_cast<std::int32_t>(kd_) + perm[i];
  }

  // Split form of the same mapping so the hot loops do one table lookup per
  // bit instead of a div/mod to recover (stream, offset).
  cb_stream_.resize(cb_map_.size());
  cb_off_.resize(cb_map_.size());
  for (std::size_t i = 0; i < cb_map_.size(); ++i) {
    if (cb_map_[i] < 0) {
      cb_stream_[i] = 3;
      cb_off_[i] = 0;
    } else {
      cb_stream_[i] = static_cast<std::uint8_t>(
          cb_map_[i] / static_cast<std::int32_t>(kd_));
      cb_off_[i] = static_cast<std::uint32_t>(
          cb_map_[i] % static_cast<std::int32_t>(kd_));
    }
  }

  // Dummy-compressed copy of the walk order plus the prefix counts that
  // translate a buffer start position into a compressed one.
  nd_prefix_.resize(cb_map_.size() + 1);
  nd_prefix_[0] = 0;
  for (std::size_t i = 0; i < cb_map_.size(); ++i) {
    nd_prefix_[i + 1] = nd_prefix_[i] + (cb_map_[i] >= 0 ? 1u : 0u);
    if (cb_map_[i] >= 0) {
      cbc_stream_.push_back(cb_stream_[i]);
      cbc_off_.push_back(cb_off_[i]);
    }
  }
}

std::size_t RateMatcher::start_index(unsigned rv) const {
  // 36.212-style: k0 = R * (24 * rv + 2), wrapped.
  return (rows_ * (24 * static_cast<std::size_t>(rv) + 2)) % cb_map_.size();
}

BitVector RateMatcher::match(const TurboCodeword& cw, std::size_t e,
                             unsigned redundancy_version) const {
  if (cw.systematic.size() != kd_)
    throw std::invalid_argument("RateMatcher: codeword size mismatch");
  if (e == 0) throw std::invalid_argument("RateMatcher: e == 0");

  auto stream_bit = [&](std::int32_t idx) -> std::uint8_t {
    const auto stream = idx / static_cast<std::int32_t>(kd_);
    const auto off = static_cast<std::size_t>(idx % static_cast<std::int32_t>(kd_));
    switch (stream) {
      case 0: return cw.systematic[off];
      case 1: return cw.parity1[off];
      default: return cw.parity2[off];
    }
  };

  BitVector out;
  out.reserve(e);
  std::size_t pos = start_index(redundancy_version);
  while (out.size() < e) {
    const std::int32_t idx = cb_map_[pos];
    if (idx >= 0) out.push_back(stream_bit(idx));
    pos = (pos + 1) % cb_map_.size();
  }
  return out;
}

RateMatcher::Dematched RateMatcher::dematch(std::span<const float> llrs,
                                            unsigned redundancy_version) const {
  Dematched out;
  out.systematic.assign(kd_, 0.0f);
  out.parity1.assign(kd_, 0.0f);
  out.parity2.assign(kd_, 0.0f);
  dematch_into(llrs, redundancy_version, out.systematic, out.parity1,
               out.parity2);
  return out;
}

void RateMatcher::dematch_into(std::span<const float> llrs,
                               unsigned redundancy_version,
                               std::span<float> systematic,
                               std::span<float> parity1,
                               std::span<float> parity2) const {
  if (systematic.size() < kd_ || parity1.size() < kd_ || parity2.size() < kd_)
    throw std::invalid_argument("dematch_into: stream spans too short");
  for (std::size_t i = 0; i < kd_; ++i) {
    systematic[i] = 0.0f;
    parity1[i] = 0.0f;
    parity2[i] = 0.0f;
  }
  // Walk the dummy-compressed order: one scatter-accumulate per received
  // LLR, no consume branch. The cyclic order matches the uncompressed walk
  // position for position, so soft-combining order (and thus the float
  // result) is unchanged.
  float* streams[3] = {systematic.data(), parity1.data(), parity2.data()};
  const std::size_t m = cbc_off_.size();
  std::size_t pos = nd_prefix_[start_index(redundancy_version)];
  if (pos == m) pos = 0;  // start landed past the last non-dummy
  for (std::size_t i = 0; i < llrs.size(); ++i) {
    streams[cbc_stream_[pos]][cbc_off_[pos]] += llrs[i];
    pos = pos + 1 == m ? 0 : pos + 1;
  }
}

void RateMatcher::dematch_rows(std::span<const std::span<const float>> lanes,
                               unsigned redundancy_version, float* systematic,
                               float* parity1, float* parity2) const {
  constexpr std::size_t kL = kTurboBatchLanes;
  if (lanes.size() > kL)
    throw std::invalid_argument("dematch_rows: more than 8 lanes");
  float* const streams[3] = {systematic, parity1, parity2};
  std::size_t e_max = 0;
  for (const std::span<const float> llrs : lanes)
    e_max = std::max(e_max, llrs.size());
  for (float* stream : streams) std::fill(stream, stream + kd_ * kL, 0.0f);
  // The span form's walk, one row per position: lane b's LLRs reach its
  // column in the same order, so every float matches.
  const std::size_t m = cbc_off_.size();
  std::size_t pos = nd_prefix_[start_index(redundancy_version)];
  if (pos == m) pos = 0;  // start landed past the last non-dummy
  for (std::size_t i = 0; i < e_max; ++i) {
    float* row = streams[cbc_stream_[pos]] + cbc_off_[pos] * kL;
    for (std::size_t b = 0; b < lanes.size(); ++b)
      if (i < lanes[b].size()) row[b] += lanes[b][i];
    pos = pos + 1 == m ? 0 : pos + 1;
  }
}

}  // namespace rtopex::phy
