// Continuous-profiling layer: backend resolution (kAuto falls back to
// software wherever perf is denied), structural parity between the perf
// and software span streams, deterministic folded/golden output under the
// synthetic backend + virtual clock, drop accounting on slab/depth
// overflow, aggregation cuts, and a multi-track concurrency hammer for the
// TSan leg.
#include "obs/profile/profile.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/profile/profile_report.hpp"

namespace rtopex::obs::profile {
namespace {

/// Synthetic counter source: every read advances cycles by 100,
/// instructions by 200, LLC misses by 1 and cpu time by 50 ns, so span
/// deltas are exact multiples of the number of reads in between.
struct SyntheticCounter {
  std::uint64_t reads = 0;
  Counters operator()() {
    ++reads;
    Counters c;
    c.cycles = 100 * reads;
    c.instructions = 200 * reads;
    c.llc_misses = reads;
    c.cpu_time_ns = 50 * reads;
    return c;
  }
};

ProfileConfig synthetic_config(SyntheticCounter& counter) {
  ProfileConfig cfg;
  cfg.enabled = true;
  cfg.backend = Backend::kSynthetic;
  cfg.synthetic_read = [&counter] { return counter(); };
  return cfg;
}

TEST(Profiler, AutoResolvesToPerfExactlyWhenAvailable) {
  ProfileConfig cfg;
  cfg.enabled = true;
  cfg.backend = Backend::kAuto;
  Profiler p(1, cfg);
  EXPECT_EQ(p.backend(),
            perf_available() ? Backend::kPerf : Backend::kSoftware);
}

TEST(Profiler, SoftwareBackendFillsSoftwareCountersOnly) {
  ProfileConfig cfg;
  cfg.enabled = true;
  cfg.backend = Backend::kSoftware;
  Profiler p(1, cfg);

  const auto token = p.begin(0, /*ts=*/0, "work");
  // Burn enough cpu for CLOCK_THREAD_CPUTIME_ID to tick.
  volatile double x = 1.0;
  for (int i = 0; i < 2000000; ++i) x = x * 1.0000001 + 1e-9;
  p.end(0, token, /*ts=*/1000);

  const ProfileStore store = p.take();
  ASSERT_EQ(store.samples.size(), 1u);
  EXPECT_EQ(store.backend, Backend::kSoftware);
  const ProfileSample& s = store.samples[0];
  EXPECT_GT(s.delta.cpu_time_ns, 0u);
  EXPECT_EQ(s.delta.cycles, 0u);  // hardware fields stay zero.
  EXPECT_EQ(s.delta.instructions, 0u);
  ASSERT_EQ(s.depth, 1u);
  EXPECT_STREQ(s.frames[0], "work");
}

TEST(Profiler, PerfAndSoftwareSpanStreamsAreStructurallyIdentical) {
  // The fallback contract: consumers see the same span structure (paths,
  // stages, payloads, nesting) whichever backend sampled. Drive the same
  // span program through a software profiler and through kAuto (perf where
  // the host allows it, software otherwise) and diff everything but the
  // counter values.
  const auto drive = [](Profiler& p) {
    const auto sf = p.begin(0, 0, "subframe", Stage::kNone, /*bs=*/3,
                            /*index=*/7);
    const auto fft = p.begin(0, 0, "fft", Stage::kFft, 3, 7);
    p.end(0, fft, 100, /*a=*/128);
    const auto dec = p.begin(0, 100, "decode", Stage::kDecode, 3, 7);
    p.end(0, dec, 200, pack_decode_regressors(6, 2, 27),
          pack_decode_load(12, 3));
    p.end(0, sf, 200);
  };

  ProfileConfig sw;
  sw.enabled = true;
  sw.backend = Backend::kSoftware;
  Profiler p_sw(1, sw);
  drive(p_sw);

  ProfileConfig autod;
  autod.enabled = true;
  autod.backend = Backend::kAuto;
  Profiler p_auto(1, autod);
  drive(p_auto);

  const ProfileStore a = p_sw.take();
  const ProfileStore b = p_auto.take();
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const ProfileSample& x = a.samples[i];
    const ProfileSample& y = b.samples[i];
    EXPECT_EQ(x.depth, y.depth);
    for (unsigned d = 0; d < x.depth; ++d)
      EXPECT_STREQ(x.frames[d], y.frames[d]);
    EXPECT_EQ(x.stage, y.stage);
    EXPECT_EQ(x.bs, y.bs);
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.a, y.a);
    EXPECT_EQ(x.b, y.b);
  }
  // Both aggregate to the same path set.
  const ProfileReport ra = aggregate(a);
  const ProfileReport rb = aggregate(b);
  ASSERT_EQ(ra.by_path.size(), rb.by_path.size());
  auto ia = ra.by_path.begin();
  for (const auto& [path, agg] : rb.by_path) {
    EXPECT_EQ(ia->first, path);
    EXPECT_EQ(ia->second.spans, agg.spans);
    ++ia;
  }
}

TEST(Profiler, SyntheticFoldedOutputIsGolden) {
  // Virtual clock + synthetic counters: the folded export is byte-exact.
  // Read sequence: sf begin (100), fft begin (200), fft end (300),
  // dec begin (400), dec end (500), sf end (600) — cycles deltas:
  // fft = 100, dec = 100, subframe = 500 inclusive. Self cost subtracts
  // the children: subframe = 300.
  SyntheticCounter counter;
  Profiler p(1, synthetic_config(counter));
  TimePoint vclock = 0;
  const auto tick = [&vclock] { return vclock += 1000; };

  const auto sf = p.begin(0, tick(), "subframe");
  const auto fft = p.begin(0, tick(), "fft", Stage::kFft);
  p.end(0, fft, tick());
  const auto dec = p.begin(0, tick(), "decode", Stage::kDecode);
  p.end(0, dec, tick());
  p.end(0, sf, tick());

  const ProfileStore store = p.take();
  ASSERT_EQ(store.samples.size(), 3u);
  EXPECT_EQ(folded(store),
            "subframe 300\n"
            "subframe;decode 100\n"
            "subframe;fft 100\n");

  // Same program again: identical folded bytes (determinism, not luck).
  SyntheticCounter counter2;
  Profiler p2(1, synthetic_config(counter2));
  vclock = 0;
  const auto sf2 = p2.begin(0, tick(), "subframe");
  const auto fft2 = p2.begin(0, tick(), "fft", Stage::kFft);
  p2.end(0, fft2, tick());
  const auto dec2 = p2.begin(0, tick(), "decode", Stage::kDecode);
  p2.end(0, dec2, tick());
  p2.end(0, sf2, tick());
  EXPECT_EQ(folded(p2.take()), folded(store));
}

TEST(Profiler, AggregateCutsAndCounterTracks) {
  SyntheticCounter counter;
  Profiler p(2, synthetic_config(counter));

  // Two tracks, distinct stages and basestations.
  const auto t0 = p.begin(0, 500, "fft", Stage::kFft, /*bs=*/0);
  p.end(0, t0, 1000);
  const auto t1 = p.begin(1, 1500, "decode", Stage::kDecode, /*bs=*/1);
  p.end(1, t1, 2000);

  const ProfileStore store = p.take();
  const ProfileReport report = aggregate(store);
  EXPECT_EQ(report.total.spans, 2u);
  ASSERT_EQ(report.by_stage_core.size(), 2u);
  EXPECT_EQ(report.by_stage_core.count({Stage::kFft, 0u}), 1u);
  EXPECT_EQ(report.by_stage_core.count({Stage::kDecode, 1u}), 1u);
  ASSERT_EQ(report.by_stage_bs.size(), 2u);
  EXPECT_EQ(report.by_stage_bs.count({Stage::kDecode, 1u}), 1u);

  // Synthetic deltas carry cycles, so each core gets an IPC lane with one
  // point per stage-tagged span.
  const auto tracks = counter_tracks(store);
  std::size_t ipc_lanes = 0, points = 0;
  for (const auto& t : tracks)
    if (t.name.find("IPC") != std::string::npos) {
      ++ipc_lanes;
      points += t.points.size();
    }
  EXPECT_EQ(ipc_lanes, 2u);
  EXPECT_EQ(points, 2u);

  // The report renders without throwing and names the backend.
  const std::string text = render_report(report);
  EXPECT_NE(text.find("synthetic"), std::string::npos);
}

TEST(Profiler, DropsOnFullSlabAndDepthOverflowAndTakeResets) {
  SyntheticCounter counter;
  ProfileConfig cfg = synthetic_config(counter);
  cfg.max_samples_per_track = 2;
  Profiler p(1, cfg);

  for (int i = 0; i < 4; ++i) {
    const auto t = p.begin(0, i, "span");
    p.end(0, t, i + 1);
  }
  EXPECT_EQ(p.total_drops(), 2u);

  ProfileStore store = p.take();
  EXPECT_EQ(store.samples.size(), 2u);
  EXPECT_EQ(store.drops, 2u);

  // take() reset the slab and the drop counter.
  EXPECT_EQ(p.total_drops(), 0u);
  const auto t = p.begin(0, 10, "again");
  p.end(0, t, 11);
  store = p.take();
  EXPECT_EQ(store.samples.size(), 1u);
  EXPECT_EQ(store.drops, 0u);

  // Depth overflow: begins past kMaxSpanDepth drop, their ends are no-ops,
  // and the in-range spans still close cleanly.
  Profiler deep(1, synthetic_config(counter));
  std::vector<Profiler::SpanToken> tokens;
  for (unsigned d = 0; d < kMaxSpanDepth + 2; ++d)
    tokens.push_back(deep.begin(0, d, "deep"));
  for (auto it = tokens.rbegin(); it != tokens.rend(); ++it)
    deep.end(0, *it, kMaxSpanDepth + 2);
  const ProfileStore deep_store = deep.take();
  EXPECT_EQ(deep_store.samples.size(), kMaxSpanDepth);
  EXPECT_EQ(deep_store.drops, 2u);
}

TEST(Profiler, ProfileSpanRaiiAndNullProfilerAreSafe) {
  SyntheticCounter counter;
  Profiler p(1, synthetic_config(counter));
  {
    ProfileSpan span(&p, 0, "outer");
    ProfileSpan inner(&p, 0, "inner", Stage::kDemod);
    inner.set_payload(11, 22);
  }
  { ProfileSpan noop(nullptr, 0, "ignored"); }
  const ProfileStore store = p.take();
  ASSERT_EQ(store.samples.size(), 2u);
  EXPECT_STREQ(store.samples[0].frames[1], "inner");
  EXPECT_EQ(store.samples[0].a, 11u);
  EXPECT_EQ(store.samples[0].b, 22u);
  EXPECT_STREQ(store.samples[1].frames[0], "outer");
}

TEST(Profiler, ConcurrentTracksHammer) {
  // One producer thread per track, all spinning begin/end concurrently —
  // the SPSC-per-track contract must hold under TSan with zero cross-track
  // interference and exact per-track sample counts.
  constexpr unsigned kTracks = 4;
  constexpr int kSpansPerTrack = 2000;
  ProfileConfig cfg;
  cfg.enabled = true;
  cfg.backend = Backend::kSoftware;
  cfg.max_samples_per_track = kSpansPerTrack;
  Profiler p(kTracks, cfg);

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kTracks; ++t)
    threads.emplace_back([&p, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kSpansPerTrack; ++i) {
        const auto outer = p.begin(t, 2 * i, "outer", Stage::kFft, t,
                                   static_cast<std::uint32_t>(i));
        const auto inner = p.begin(t, 2 * i, "inner", Stage::kDecode, t,
                                   static_cast<std::uint32_t>(i));
        p.end(t, inner, 2 * i + 1);
        p.end(t, outer, 2 * i + 1);
      }
    });
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  const ProfileStore store = p.take();
  // Each track recorded kSpansPerTrack spans then dropped the rest.
  std::uint64_t per_track[kTracks] = {};
  for (const ProfileSample& s : store.samples) {
    ASSERT_LT(s.core, kTracks);
    ++per_track[s.core];
  }
  for (unsigned t = 0; t < kTracks; ++t)
    EXPECT_EQ(per_track[t], cfg.max_samples_per_track);
  EXPECT_EQ(store.drops,
            kTracks * (2ull * kSpansPerTrack - cfg.max_samples_per_track));
}

}  // namespace
}  // namespace rtopex::obs::profile
