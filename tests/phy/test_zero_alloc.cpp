// Zero-allocation guarantee for the steady-state uplink hot path, and for
// the virtual-time node's per-subframe path.
//
// This binary replaces the global operator new/delete with counting
// versions. Each test warms a job + workspace (grow-only buffers reach
// their high-water mark), then flips the counter on and drives further
// subframes through the exact entry points the runtime workers use — the
// counter must stay at zero. Assertions run outside the measured region so
// gtest's own bookkeeping never pollutes the count. The simulator tests
// count whole scheduler runs instead: a run allocates its per-run buffers,
// so the check is that the count does not grow with the workload.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>
#include <optional>
#include <thread>

#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "obs/profile/profile.hpp"
#include "phy/turbo.hpp"
#include "phy/uplink_rx.hpp"
#include "phy/uplink_tx.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<bool> g_counting{false};

void* counted_alloc_or_null(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_alloc(std::size_t size) {
  void* p = counted_alloc_or_null(size);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

// The nothrow forms are replaced too (std::stable_sort's temporary buffer
// uses them): every form here frees with std::free, so a nothrow allocation
// left to the sanitizer runtime would be a new/free mismatch.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_or_null(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_or_null(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rtopex::phy {
namespace {

/// Runs `fn` with allocation counting enabled; returns the number of
/// operator-new calls it performed.
template <typename Fn>
std::size_t count_allocations(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(ZeroAllocTest, CountingOperatorNewIsLive) {
  const std::size_t n = count_allocations([] {
    // Direct operator-new call: a new-expression could legally be elided.
    void* p = ::operator new(16);
    ::operator delete(p);
  });
  EXPECT_GE(n, 1u);
}

TEST(ZeroAllocTest, TurboDecodeIntoIsAllocationFreeWhenWarm) {
  const std::size_t k = 6144;
  const QppInterleaver qpp(k);
  const TurboEncoder enc(qpp);
  const TurboDecoder dec(qpp, 4);
  Rng rng(11);
  BitVector payload(k - 24);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next() & 1);
  attach_crc24(payload, CrcKind::kB);
  const auto cw = enc.encode(payload);
  const double sigma = 0.5;
  LlrVector sys(cw.systematic.size()), p1(sys.size()), p2(sys.size());
  for (std::size_t i = 0; i < sys.size(); ++i) {
    sys[i] = static_cast<float>((cw.systematic[i] ? -1.0 : 1.0) +
                                rng.normal(0.0, sigma));
    p1[i] = static_cast<float>((cw.parity1[i] ? -1.0 : 1.0) +
                               rng.normal(0.0, sigma));
    p2[i] = static_cast<float>((cw.parity2[i] ? -1.0 : 1.0) +
                               rng.normal(0.0, sigma));
  }
  const std::function<bool(std::span<const std::uint8_t>)> crc =
      [](std::span<const std::uint8_t> b) {
        return check_crc24(b, CrcKind::kB);
      };

  DecodeWorkspace ws;
  dec.decode_into(sys, p1, p2, ws, crc);  // warm-up: buffers grow here.
  const auto warm = ws.iterations;

  const std::size_t allocs = count_allocations([&] {
    for (int rep = 0; rep < 4; ++rep) dec.decode_into(sys, p1, p2, ws, crc);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(ws.iterations, warm);  // deterministic reuse.
}

// The full subframe path as a NodeRuntime worker drives it: begin, FFT /
// demod / decode subtask loops, finalize_into — with a reused job, a reused
// per-thread workspace and a reused result. After one warm-up subframe per
// subframe index, steady state must not touch the heap at all, including
// across c_init changes (the descrambler regenerates in place).
TEST(ZeroAllocTest, UplinkSubframeSteadyStateIsAllocationFree) {
  UplinkConfig cfg;
  cfg.num_antennas = 2;
  const unsigned mcs = 27;
  const UplinkTransmitter tx(cfg);
  const UplinkRxProcessor rx(cfg);

  // Pre-generate subframes at distinct subframe indices (distinct scrambling
  // c_init) and fan each out to both antennas noiselessly.
  constexpr std::uint32_t kIndices[] = {1, 2, 3};
  std::vector<std::vector<IqVector>> antenna_sets;
  std::vector<TxSubframe> sent;
  for (const auto idx : kIndices) {
    sent.push_back(tx.transmit(mcs, idx, 900 + idx));
    antenna_sets.push_back(
        std::vector<IqVector>(cfg.num_antennas, sent.back().samples));
  }

  auto job = rx.make_job();
  DecodeWorkspace& ws = UplinkRxProcessor::thread_workspace();
  UplinkRxResult result;
  unsigned crc_failures = 0;
  const auto run_subframe = [&](std::size_t i) {
    rx.begin(job, antenna_sets[i], mcs, kIndices[i]);
    for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
      rx.run_fft_subtask(job, s, ws);
    rx.demod_prepare(job);
    for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
      rx.run_demod_subtask(job, s);
    rx.decode_prepare(job, ws);
    for (std::size_t s = 0; s < rx.decode_subtask_count(job); ++s)
      rx.run_decode_subtask(job, s, ws);
    rx.finalize_into(job, ws, result);
    if (!result.crc_ok) ++crc_failures;
  };

  for (std::size_t i = 0; i < sent.size(); ++i) run_subframe(i);  // warm-up.
  ASSERT_EQ(crc_failures, 0u) << "noiseless warm-up subframe failed CRC";

  const std::size_t allocs = count_allocations([&] {
    for (int rep = 0; rep < 6; ++rep) run_subframe(rep % sent.size());
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(crc_failures, 0u);
  EXPECT_EQ(result.payload, sent[2].payload);  // last rep = 5 % 3 -> set 2.
}

// Same property through the convenience overloads (thread-local workspace),
// which is the exact call pattern of NodeRuntime's migrated-chunk hosts.
TEST(ZeroAllocTest, ThreadWorkspaceOverloadsAreAllocationFreeWhenWarm) {
  UplinkConfig cfg;
  cfg.num_antennas = 2;
  const unsigned mcs = 16;
  const UplinkTransmitter tx(cfg);
  const UplinkRxProcessor rx(cfg);
  const TxSubframe sf = tx.transmit(mcs, 4, 77);
  const std::vector<IqVector> antennas(cfg.num_antennas, sf.samples);

  auto job = rx.make_job();
  UplinkRxResult result;
  const auto run_subframe = [&] {
    rx.begin(job, antennas, mcs, sf.subframe_index);
    for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
      rx.run_fft_subtask(job, s);
    rx.demod_prepare(job);
    for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
      rx.run_demod_subtask(job, s);
    rx.decode_prepare(job);
    for (std::size_t s = 0; s < rx.decode_subtask_count(job); ++s)
      rx.run_decode_subtask(job, s);
    rx.finalize_into(job, UplinkRxProcessor::thread_workspace(), result);
  };

  run_subframe();  // warm-up.
  ASSERT_TRUE(result.crc_ok);

  const std::size_t allocs = count_allocations([&] {
    for (int rep = 0; rep < 4; ++rep) run_subframe();
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(result.crc_ok);
  EXPECT_EQ(result.payload, sf.payload);
}

// The throughput-mode batched path as a batched NodeRuntime worker drives
// it: two persistent workers, each draining two subframes per pass (begin /
// FFT / demod / decode_prepare per job, then one cross-subframe
// run_decode_batch over both jobs) out of its own thread workspace, which it
// pre-warms on its own thread first. Thread spawning, the pre-warm and the
// first (growth) lap are setup; every later pass must leave the heap
// untouched on both threads — the counting operator new is global, so
// worker-thread allocations count too.
TEST(ZeroAllocTest, BatchedDecodeAcrossWorkersIsAllocationFreeWhenWarm) {
  UplinkConfig cfg;
  cfg.num_antennas = 2;
  const unsigned mcs = 27;
  const UplinkTransmitter tx(cfg);
  const UplinkRxProcessor rx(cfg);

  // Four noiseless subframes at distinct subframe indices; worker w owns
  // subframes {2w, 2w+1}.
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kPerWorker = 2;
  std::vector<TxSubframe> sent;
  std::vector<std::vector<IqVector>> antenna_sets;
  for (std::uint32_t i = 0; i < kWorkers * kPerWorker; ++i) {
    sent.push_back(tx.transmit(mcs, i + 1, 500 + i));
    antenna_sets.push_back(
        std::vector<IqVector>(cfg.num_antennas, sent.back().samples));
  }

  // Pre-warm (setup): a full dummy-subframe decode grows the
  // single-subframe buffers; the first worker lap below grows the
  // cross-subframe batch scratch to its two-job size.
  const auto prewarm = [&](DecodeWorkspace& ws) {
    auto job = rx.make_job();
    UplinkRxResult r;
    rx.begin(job, antenna_sets[0], mcs, 1);
    for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
      rx.run_fft_subtask(job, s, ws);
    rx.demod_prepare(job);
    for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
      rx.run_demod_subtask(job, s);
    rx.decode_prepare(job, ws);
    rx.run_decode_batch(job, ws);
    rx.finalize_into(job, ws, r);
  };

  // Per-worker jobs/results built before the threads spawn (setup).
  std::vector<std::vector<UplinkRxJob>> jobs(kWorkers);
  std::vector<std::vector<UplinkRxResult>> results(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (std::size_t j = 0; j < kPerWorker; ++j) jobs[w].push_back(rx.make_job());
    results[w].resize(kPerWorker);
  }
  std::atomic<unsigned> crc_failures{0};

  const auto run_pass = [&](std::size_t w) {
    DecodeWorkspace& ws = UplinkRxProcessor::thread_workspace();
    std::array<UplinkRxJob*, kPerWorker> batch{};
    for (std::size_t j = 0; j < kPerWorker; ++j) {
      UplinkRxJob& job = jobs[w][j];
      const std::size_t i = w * kPerWorker + j;
      rx.begin(job, antenna_sets[i], mcs,
               static_cast<std::uint32_t>(i + 1));
      for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
        rx.run_fft_subtask(job, s, ws);
      rx.demod_prepare(job);
      for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
        rx.run_demod_subtask(job, s);
      rx.decode_prepare(job, ws);
      batch[j] = &job;
    }
    rx.run_decode_batch(std::span<UplinkRxJob* const>(batch), ws);
    for (std::size_t j = 0; j < kPerWorker; ++j) {
      rx.finalize_into(*batch[j], ws, results[w][j]);
      if (!results[w][j].crc_ok)
        crc_failures.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Persistent workers driven by a generation gate (spawning a std::thread
  // allocates, so both outlive the counted region).
  std::mutex m;
  std::condition_variable cv;
  int pass = 0, done = 0;
  bool quit = false;
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      prewarm(UplinkRxProcessor::thread_workspace());
      int seen = 0;
      for (;;) {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return quit || pass != seen; });
        if (quit) return;
        seen = pass;
        lk.unlock();
        run_pass(w);
        lk.lock();
        ++done;
        cv.notify_all();
      }
    });
  }
  const auto run_all = [&] {
    std::unique_lock<std::mutex> lk(m);
    done = 0;
    ++pass;
    cv.notify_all();
    cv.wait(lk, [&] { return done == static_cast<int>(kWorkers); });
  };

  run_all();  // warm lap: batch scratch reaches its two-job high-water mark.
  ASSERT_EQ(crc_failures.load(), 0u) << "noiseless warm-up lap failed CRC";

  const std::size_t allocs = count_allocations([&] {
    for (int rep = 0; rep < 3; ++rep) run_all();
  });
  {
    std::lock_guard<std::mutex> lk(m);
    quit = true;
    cv.notify_all();
  }
  for (auto& t : workers) t.join();

  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(crc_failures.load(), 0u);
  for (std::size_t w = 0; w < kWorkers; ++w)
    for (std::size_t j = 0; j < kPerWorker; ++j)
      EXPECT_EQ(results[w][j].payload, sent[w * kPerWorker + j].payload);
}

// One reused job decoding a cycle of MCS with different code-block counts,
// as a NodeRuntime worker does across its mcs_cycle: after one warm lap no
// subframe may allocate, though every change of MCS shrinks or grows the
// job's per-block results.
TEST(ZeroAllocTest, JobCyclingThroughMcsIsAllocationFreeWhenWarm) {
  UplinkConfig cfg;
  cfg.num_antennas = 2;
  const UplinkTransmitter tx(cfg);
  const UplinkRxProcessor rx(cfg);
  const unsigned cycle[] = {27, 16, 4};
  std::vector<TxSubframe> sent;
  std::vector<std::vector<IqVector>> antenna_sets;
  for (std::uint32_t i = 0; i < std::size(cycle); ++i) {
    sent.push_back(tx.transmit(cycle[i], i + 1, 300 + i));
    antenna_sets.push_back(
        std::vector<IqVector>(cfg.num_antennas, sent.back().samples));
  }

  auto job = rx.make_job();
  DecodeWorkspace ws;
  UplinkRxResult result;
  unsigned crc_failures = 0;
  std::vector<std::size_t> blocks;
  const auto run_subframe = [&](std::size_t i) {
    rx.begin(job, antenna_sets[i], cycle[i], static_cast<std::uint32_t>(i + 1));
    for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
      rx.run_fft_subtask(job, s, ws);
    rx.demod_prepare(job);
    for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
      rx.run_demod_subtask(job, s);
    rx.decode_prepare(job, ws);
    for (std::size_t s = 0; s < rx.decode_subtask_count(job); ++s)
      rx.run_decode_subtask(job, s, ws);
    rx.finalize_into(job, ws, result);
    if (!result.crc_ok) ++crc_failures;
  };

  for (std::size_t i = 0; i < std::size(cycle); ++i) {  // warm lap.
    run_subframe(i);
    blocks.push_back(job.cb_results.size());
  }
  ASSERT_EQ(crc_failures, 0u) << "noiseless warm-up subframe failed CRC";
  ASSERT_GT(blocks[0], blocks[1]);  // each change of MCS resizes the results
  ASSERT_GT(blocks[1], blocks[2]);

  const std::size_t allocs = count_allocations([&] {
    for (std::size_t rep = 0; rep < 3 * std::size(cycle); ++rep)
      run_subframe(rep % std::size(cycle));
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(crc_failures, 0u);
  EXPECT_EQ(job.cb_results.size(), blocks.back());
  EXPECT_EQ(result.payload, sent.back().payload);
}

// A workspace is warmed by UplinkRxProcessor's pre-warm rule alone,
// with no growth lap, and must then decode any span of the warmed MCS set
// without touching the heap. At 10 MHz MCS 27 has the most blocks (six of
// K = 5312) but MCS 26 the largest (five of K = 6080), so warming with the
// highest MCS would leave both decoders short at K = 6080. The first span
// mixes the two MCS; the second has ten MCS 26 blocks, one full batch and a
// two-block group for the scalar decoder.
TEST(ZeroAllocTest, PrewarmRuleAloneCoversMixedSpansAndScalarFallback) {
  UplinkConfig cfg;
  cfg.num_antennas = 2;
  const UplinkTransmitter tx(cfg);
  const UplinkRxProcessor rx(cfg);
  const unsigned mcs_set[] = {27, 26};
  std::vector<TxSubframe> sent;
  std::vector<std::vector<IqVector>> antenna_sets;
  for (std::uint32_t i = 0; i < std::size(mcs_set); ++i) {
    sent.push_back(tx.transmit(mcs_set[i], i + 1, 700 + i));
    antenna_sets.push_back(
        std::vector<IqVector>(cfg.num_antennas, sent.back().samples));
  }

  const unsigned warm = rx.largest_block_mcs(mcs_set);
  ASSERT_EQ(warm, 26u);
  DecodeWorkspace ws;
  rx.prewarm(ws, antenna_sets[1], warm, 2);

  // Jobs {MCS 27, MCS 26, MCS 26}, each up to decode_prepare (setup).
  const std::size_t which[] = {0, 1, 1};
  std::vector<UplinkRxJob> jobs;
  for (const std::size_t i : which) {
    UplinkRxJob job = rx.make_job();
    rx.begin(job, antenna_sets[i], mcs_set[i], i + 1);
    for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
      rx.run_fft_subtask(job, s, ws);
    rx.demod_prepare(job);
    for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
      rx.run_demod_subtask(job, s);
    rx.decode_prepare(job, ws);
    jobs.push_back(std::move(job));
  }
  UplinkRxJob* mixed[] = {&jobs[0], &jobs[1]};
  UplinkRxJob* same_k[] = {&jobs[1], &jobs[2]};

  const std::size_t allocs = count_allocations([&] {
    rx.run_decode_batch(std::span<UplinkRxJob* const>(mixed), ws);
    rx.run_decode_batch(std::span<UplinkRxJob* const>(same_k), ws);
  });
  EXPECT_EQ(allocs, 0u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    UplinkRxResult result;
    rx.finalize_into(jobs[j], ws, result);
    EXPECT_TRUE(result.crc_ok) << "job " << j;
    EXPECT_EQ(result.payload, sent[which[j]].payload) << "job " << j;
  }
}

// The profiling layer rides on the same hot path, so its steady state must
// be allocation-free too: the sample slab is preallocated at construction
// and begin/end/ProfileSpan only write into it. Both real backends are
// held to the guarantee (software always; perf wherever the host allows
// it, via kAuto).
TEST(ZeroAllocTest, ProfileSpanSteadyStateIsAllocationFree) {
  namespace prof = rtopex::obs::profile;
  for (const auto backend :
       {prof::Backend::kSoftware, prof::Backend::kAuto}) {
    prof::ProfileConfig cfg;
    cfg.enabled = true;
    cfg.backend = backend;
    prof::Profiler profiler(1, cfg);

    // Warm-up: the perf backend opens its per-thread counter group on the
    // owner's first begin().
    {
      prof::ProfileSpan warm(&profiler, 0, "warm", rtopex::obs::Stage::kFft);
    }

    const std::size_t allocs = count_allocations([&] {
      for (int rep = 0; rep < 64; ++rep) {
        prof::ProfileSpan outer(&profiler, 0, "subframe");
        prof::ProfileSpan inner(&profiler, 0, "decode",
                                rtopex::obs::Stage::kDecode, 0,
                                static_cast<std::uint32_t>(rep));
        inner.set_payload(prof::pack_decode_regressors(6, 2, 27),
                          prof::pack_decode_load(12, 1));
      }
    });
    EXPECT_EQ(allocs, 0u) << "backend " << prof::to_string(backend);

    const prof::ProfileStore store = profiler.take();
    EXPECT_EQ(store.samples.size(), 2u * 64u + 1u);
    EXPECT_EQ(store.drops, 0u);
  }
}

}  // namespace
}  // namespace rtopex::phy

namespace rtopex::core {
namespace {

// The virtual-time node allocates per run, never per subframe: a warm
// scheduler run (the what-if grid's configuration at one load) makes the
// same number of allocations over 2,000 subframes as over 4,000, for every
// policy, static and adaptive.
TEST(SimAllocTest, SchedulerRunAllocationsDoNotGrowWithTheWorkload) {
  ExperimentConfig cfg;
  cfg.workload.num_basestations = 4;
  cfg.workload.seed = 1;
  cfg.workload.mean_load_override = 0.8;
  cfg.rtt_half = microseconds(500);
  cfg.global.num_cores = 8;
  cfg.workload.subframes_per_bs = 500;
  const std::vector<sim::SubframeWork> short_work = make_workload(cfg);
  cfg.workload.subframes_per_bs = 1000;
  const std::vector<sim::SubframeWork> long_work = make_workload(cfg);
  ASSERT_EQ(short_work.size(), 2000u);
  ASSERT_EQ(long_work.size(), 4000u);

  for (const SchedulerKind kind :
       {SchedulerKind::kPartitioned, SchedulerKind::kGlobal,
        SchedulerKind::kRtOpex}) {
    for (const bool adaptive : {false, true}) {
      cfg.scheduler = kind;
      cfg.adaptive.enabled = adaptive;
      run_scheduler(cfg, short_work);  // warm-up
      std::size_t migrated = 0;
      const auto allocations = [&](std::span<const sim::SubframeWork> work) {
        std::optional<ExperimentResult> r;
        const std::size_t n = rtopex::phy::count_allocations(
            [&] { r = run_scheduler(cfg, work); });
        EXPECT_EQ(r->metrics.total_subframes, work.size());
        migrated += r->metrics.fft_subtasks_migrated +
                    r->metrics.decode_subtasks_migrated;
        return n;
      };
      const std::size_t n_short = allocations(short_work);
      const std::size_t n_long = allocations(long_work);
      EXPECT_EQ(n_short, n_long)
          << to_string(kind) << (adaptive ? " adaptive" : " static");
      // RT-OPEX must actually have planned migrations for the count to
      // cover Algorithm 1's path.
      if (kind == SchedulerKind::kRtOpex) {
        EXPECT_GT(migrated, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace rtopex::core
