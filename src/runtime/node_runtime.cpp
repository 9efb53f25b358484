#include "runtime/node_runtime.hpp"

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>

#include "channel/channel.hpp"
#include "common/rng.hpp"
#include "common/thread_utils.hpp"
#include "model/online_fit.hpp"
#include "model/task_cost_model.hpp"
#include "obs/analysis/replay.hpp"
#include "obs/histogram.hpp"
#include "obs/profile/profile.hpp"
#include "obs/profile/profile_report.hpp"
#include "obs/tracer.hpp"
#include "phy/uplink_tx.hpp"
#include "runtime/clock.hpp"
#include "runtime/cpu_state_table.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/stage_scope.hpp"
#include "sched/migration.hpp"

namespace rtopex::runtime {
namespace {

/// Pre-generated received subframe (one per (bs, mcs) pair).
struct RxVariant {
  unsigned mcs = 0;
  std::uint32_t tx_subframe_index = 0;  ///< scrambling seed used at TX.
  std::vector<phy::IqVector> antenna_samples;
};

struct Job {
  const RxVariant* variant = nullptr;
  unsigned bs = 0;
  std::uint32_t index = 0;
  TimePoint radio_time = 0;
  TimePoint arrival = 0;
  TimePoint deadline = 0;
};

/// A job queue: the ticker pushes, workers take. Each worker owns one;
/// global mode adds one that every worker takes from.
struct JobQueue {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Job> jobs;
  /// Queued jobs, readable without `mu`: RT-OPEX polls it, and the
  /// watchdog reads it as "work is waiting".
  std::atomic<int> pending{0};

  void push(const Job& j) {
    {
      std::lock_guard lock(mu);
      jobs.push_back(j);
    }
    // Counted after the unlock, so a poller that sees the job finds the lock
    // free instead of sleeping on it while it still looks idle to planners.
    pending.fetch_add(1, std::memory_order_acq_rel);
    cv.notify_one();
  }

  bool empty() {
    std::lock_guard lock(mu);
    return jobs.empty();
  }
};

/// Per-worker state: its own job queue (partitioned/RT-OPEX) plus the
/// migration mailbox.
struct WorkerState {
  JobQueue queue;
  Mailbox mailbox;
  std::vector<SubframeRecord> records;
  /// Nominal arrival of this worker's next own subframe (RT-OPEX horizon).
  std::atomic<TimePoint> next_own_arrival{0};
  /// Bumped once per worker-loop iteration and per hosted subtask; the
  /// ticker-side watchdog reads it to distinguish a stalled core (queued
  /// work, frozen heartbeat) from a busy or idle one.
  std::atomic<std::uint64_t> heartbeat{0};
  /// Set by the watchdog: excluded from migration planning and from the
  /// partition table from then on.
  std::atomic<bool> dead{false};
  /// The worker's own Algorithm 1 plan, refilled by each stage it migrates.
  sched::MigrationPlan plan;
  /// Set by the worker itself just before parking on a kill_worker hook.
  /// A parked worker has returned from its loop and will never touch job
  /// buffers again — unlike a watchdog-declared-dead worker, which may
  /// merely be slow and still finish its subtask.
  std::atomic<bool> parked{false};
};

/// The series the mid-run snapshot and the post-run registry both carry:
/// the counters readable while workers run, then the trace-loss counters
/// of `trace` (null when the run has no tracer).
void fill_live_series(const RuntimeReport& report,
                      const obs::TraceStore* trace,
                      obs::MetricsRegistry& registry) {
  registry.add_counter("rtopex_runtime_migrations_total",
                       "Subtasks executed on a remote core.",
                       static_cast<double>(report.migrations));
  registry.add_counter("rtopex_runtime_recoveries_total",
                       "Migrated subtasks re-executed locally.",
                       static_cast<double>(report.recoveries));
  registry.add_counter("rtopex_runtime_batched_subframes_total",
                       "Subframes decoded in a cross-subframe batch.",
                       static_cast<double>(report.batched_subframes));
  const ResilienceMetrics& res = report.resilience;
  registry.add_counter("rtopex_runtime_failovers_total",
                       "Workers declared dead by the watchdog.",
                       static_cast<double>(res.failovers));
  registry.add_counter("rtopex_runtime_repartitions_total",
                       "Partition-table rebuilds after a failover.",
                       static_cast<double>(res.repartitions));
  registry.add_counter("rtopex_runtime_requeued_jobs_total",
                       "Jobs requeued from a dead worker's queue.",
                       static_cast<double>(res.requeued_jobs));
  registry.add_counter("rtopex_runtime_flag_timeouts_total",
                       "Completion-flag waits that expired.",
                       static_cast<double>(res.flag_timeouts));
  registry.add_counter("rtopex_runtime_lost_subframes_total",
                       "Subframes the fronthaul never delivered.",
                       static_cast<double>(res.lost_subframes));
  if (!trace) return;
  registry.add_counter("rtopex_trace_ring_drops_total",
                       "Trace events dropped on full per-core rings.",
                       static_cast<double>(trace->ring_drops));
  for (std::size_t t = 0; t < trace->ring_drops_per_track.size(); ++t)
    registry.add_counter(
        "rtopex_trace_ring_dropped_total",
        "Trace events dropped on one core's full ring.",
        static_cast<double>(trace->ring_drops_per_track[t]),
        {{"core", std::to_string(t)}});
  registry.add_counter("rtopex_trace_store_drops_total",
                       "Trace events refused by the bounded store.",
                       static_cast<double>(trace->store_drops));
  registry.add_counter("rtopex_trace_collected_events_total",
                       "Trace events drained into the bounded store.",
                       static_cast<double>(trace->events.size()));
}

}  // namespace

struct NodeRuntime::Impl {
  RuntimeConfig config;
  GlobalClock clock;
  CpuStateTable table;
  std::vector<std::unique_ptr<WorkerState>> workers;
  std::unique_ptr<phy::UplinkRxProcessor> rx;
  std::vector<std::vector<RxVariant>> variants;  // [bs][distinct mcs]
  std::atomic<bool> running{true};
  /// Workers that have finished per-thread setup (job buffers, workspace
  /// pre-warm). The ticker holds the schedule epoch until every worker has
  /// checked in: batch mode allocates `batch` job buffers per worker, easily
  /// >10 ms of page faults, and a cold workspace grows on the first
  /// subframes; neither should be charged to their deadlines.
  std::atomic<unsigned> workers_ready{0};

  /// The queue every worker takes from in global mode (empty otherwise).
  JobQueue global_queue;

  /// The run's one stage-estimate state. Its FFT-subtask, demod and
  /// per-code-block trackers start at the configured seeds; its Eq. (1) fit
  /// and iteration predictors are consulted only under config.adaptive.
  /// Workers read and feed it concurrently, so every access holds `est_mu`;
  /// the critical sections are a handful of FLOPs against µs-scale stages.
  std::mutex est_mu;
  model::OnlineEstimators est;
  Duration migration_cost = microseconds(20);

  /// The three stage estimates in force.
  model::StageTimes estimates() {
    std::lock_guard lock(est_mu);
    return {est.fft_subtask_or(config.initial_fft_subtask_est),
            est.demod_or(config.initial_demod_est),
            est.decode_subtask_or(config.initial_decode_subtask_est)};
  }

  std::atomic<std::size_t> migrations{0};
  std::atomic<std::size_t> recoveries{0};
  std::atomic<std::size_t> flag_timeouts{0};

  /// Null unless config.trace.enabled (or config.health.enabled, which
  /// needs the event stream). One track per worker plus a dedicated ticker
  /// track; the ticker is the sole collector.
  std::unique_ptr<obs::Tracer> tracer;

  /// Null unless config.profile.enabled. One track per worker plus the
  /// ticker track (unused today, reserved so track ids line up with the
  /// tracer's); same SPSC ownership contract — begin/end only from the
  /// owning thread, take() once the workers have joined.
  std::unique_ptr<obs::profile::Profiler> profiler;

  /// Live health engine (null unless config.health.enabled). Ticker-owned:
  /// fed from the bounded store after each collect(), advanced on the
  /// monotonic clock, so it never contends with the workers.
  std::unique_ptr<obs::health::HealthMonitor> health;
  std::size_t health_fed = 0;  ///< store events already fed to the monitor.

  // ---- resilience state (ticker-thread only unless noted) ---------------
  /// Partition table: slots[bs][residue] -> worker id. Read and written
  /// only on the ticker thread (push_job and the watchdog both run there),
  /// so repartitioning needs no synchronization against dispatch.
  std::vector<std::vector<unsigned>> slots;
  /// Fronthaul loss / late-delivery process (validated at construction).
  transport::FronthaulFaultModel fault_model;
  /// Watchdog bookkeeping per worker.
  std::vector<std::uint64_t> last_heartbeat;
  std::vector<TimePoint> last_progress;
  std::size_t res_failovers = 0;
  std::size_t res_repartitions = 0;
  std::size_t res_requeued = 0;
  /// Records for subframes that never reached the node (ticker-owned).
  std::vector<SubframeRecord> lost_records;

  // ---- throughput mode --------------------------------------------------
  /// Hard cap on ThroughputConfig::batch — the cross-subframe decode
  /// groups at most this many subframes per call.
  static constexpr std::size_t kMaxBatch = 16;
  /// Subframes decoded inside a cross-subframe batch of >= 2.
  std::atomic<std::size_t> batched_subframes{0};

  unsigned worker_pin_core(unsigned id) const {
    const std::vector<unsigned>& cores = config.throughput.worker_cores;
    if (!cores.empty()) return cores[id % cores.size()];
    return id % hardware_core_count();
  }

  explicit Impl(const RuntimeConfig& cfg)
      : config(cfg),
        table(worker_count(cfg)),
        est(cfg.phy.num_antennas, cfg.phy.num_prb(), cfg.num_basestations,
            cfg.phy.max_iterations,
            {.fft_subtask = cfg.initial_fft_subtask_est,
             .demod = cfg.initial_demod_est,
             .decode_subtask = cfg.initial_decode_subtask_est}),
        fault_model(cfg.resilience.fronthaul_faults) {
    for (unsigned i = 0; i < worker_count(cfg); ++i) {
      workers.push_back(std::make_unique<WorkerState>());
      workers.back()->mailbox.set_owner(i);
    }
    if (cfg.mode != RuntimeMode::kGlobal) {
      slots.resize(cfg.num_basestations);
      for (unsigned bs = 0; bs < cfg.num_basestations; ++bs) {
        slots[bs].resize(cfg.cores_per_bs);
        for (unsigned r = 0; r < cfg.cores_per_bs; ++r)
          slots[bs][r] = bs * cfg.cores_per_bs + r;
      }
    }
    last_heartbeat.assign(worker_count(cfg), 0);
    last_progress.assign(worker_count(cfg), 0);
    if (cfg.trace.enabled || cfg.health.enabled) {
      tracer = std::make_unique<obs::Tracer>(worker_count(cfg) + 1,
                                             cfg.trace.ring_capacity,
                                             cfg.trace.max_stored_events);
      tracer->set_clock([this] { return clock.now(); });
    }
    if (cfg.profile.enabled)
      profiler = std::make_unique<obs::profile::Profiler>(
          worker_count(cfg) + 1, cfg.profile);
    if (cfg.health.enabled) {
      obs::health::Topology topo;
      topo.num_nodes = 1;
      topo.num_basestations = cfg.num_basestations;
      topo.node_cores = {worker_count(cfg)};
      health = std::make_unique<obs::health::HealthMonitor>(cfg.health, topo);
      health->set_tracer(tracer.get(), ticker_track());
    }
    rx = std::make_unique<phy::UplinkRxProcessor>(cfg.phy);
    build_variants();
  }

  obs::Tracer* trc() { return tracer.get(); }
  obs::profile::Profiler* prof() { return profiler.get(); }
  /// The ticker's dedicated trace track (the one past the worker tracks).
  std::uint32_t ticker_track() const {
    return static_cast<std::uint32_t>(workers.size());
  }

  static unsigned worker_count(const RuntimeConfig& cfg) {
    return cfg.mode == RuntimeMode::kGlobal
               ? cfg.global_cores
               : cfg.num_basestations * cfg.cores_per_bs;
  }

  void build_variants() {
    phy::UplinkTransmitter tx(config.phy);
    Rng rng(config.seed);
    variants.resize(config.num_basestations);
    std::vector<unsigned> distinct = config.mcs_cycle;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (unsigned bs = 0; bs < config.num_basestations; ++bs) {
      for (const unsigned mcs : distinct) {
        const std::uint32_t tx_index = bs;  // distinct scrambling per BS
        const phy::TxSubframe sf = tx.transmit(mcs, tx_index, rng.next());
        channel::ChannelConfig ch;
        ch.snr_db = config.snr_db;
        ch.num_rx_antennas = config.phy.num_antennas;
        RxVariant v;
        v.mcs = mcs;
        v.tx_subframe_index = tx_index;
        v.antenna_samples =
            channel::pass_through_channel(sf.samples, ch, rng.next());
        variants[bs].push_back(std::move(v));
      }
    }
  }

  const RxVariant& variant_for(unsigned bs, unsigned mcs) const {
    for (const auto& v : variants[bs])
      if (v.mcs == mcs) return v;
    throw std::logic_error("no RX variant for this MCS");
  }

  /// Grows a worker's workspace to its working size before the schedule
  /// starts, by UplinkRxProcessor::prewarm on the variant with the largest
  /// code blocks (not the highest MCS: K does not grow with MCS), so both
  /// the batched and the per-block decoder reach their high-water marks.
  /// Each worker runs it on its own pinned thread, so first touch places
  /// the pages on the worker's NUMA node. (Per-c_init scramble sequences
  /// for basestations other than 0 still generate lazily on their first
  /// subframe — a few hundred bytes each, bounded by the LRU cache.)
  void prewarm_workspace(phy::DecodeWorkspace& ws) {
    const RxVariant& v =
        variant_for(0, rx->largest_block_mcs(config.mcs_cycle));
    rx->prewarm(ws, v.antenna_samples, v.mcs, v.tx_subframe_index);
  }

  unsigned partitioned_worker(unsigned bs, std::uint32_t index) const {
    return bs * config.cores_per_bs + index % config.cores_per_bs;
  }

  // ---- worker side ----------------------------------------------------

  /// Workload capture: one kJobSpec record of this subframe onto `track`
  /// (the emitter's own SPSC track), through the capture format's one
  /// writer, so the drained trace is replayable by obs/analysis/replay.
  /// Costs carry the measured stage times when the subframe was actually
  /// processed; for dropped/late/lost subframes — never decoded, so never
  /// measured — the estimates in force stand in, which keeps a
  /// counterfactual replay able to schedule them.
  void capture_job(std::uint32_t track, const Job& j, unsigned mcs,
                   const SubframeRecord& rec, std::size_t fft_n,
                   std::size_t dec_n) {
    if (!RTOPEX_TRACE_ENABLED || !tracer) return;
    const model::StageTimes e = estimates();
    const auto n_fft = static_cast<Duration>(fft_n);
    const auto n_dec = static_cast<Duration>(dec_n);
    const model::SubframeCosts wcet{
        .fft = e.fft_subtask * n_fft, .demod = e.demod,
        .decode = e.decode_subtask * n_dec,
        .fft_subtasks = static_cast<unsigned>(fft_n),
        .decode_subtasks = static_cast<unsigned>(dec_n),
        .fft_subtask = e.fft_subtask, .decode_subtask = e.decode_subtask};
    const bool measured =
        !rec.lost && !rec.late_arrival && !rec.dropped && rec.timing.decode > 0;
    model::SubframeCosts costs = wcet;
    if (measured) {
      costs.fft = rec.timing.fft;
      costs.demod = rec.timing.demod;
      costs.decode = rec.timing.decode;
      costs.fft_subtask = rec.timing.fft / n_fft;
      costs.decode_subtask = rec.timing.decode / n_dec;
    }
    const unsigned lm = std::max(1u, config.phy.max_iterations);
    const unsigned iters = measured ? std::max(1u, rec.iterations) : lm;
    const sim::SubframeWork w{
        .bs = j.bs, .index = j.index, .radio_time = j.radio_time,
        .arrival = j.arrival, .deadline = j.deadline, .mcs = mcs,
        .iterations = iters, .lm = lm,
        .decodable = measured ? rec.crc_ok : true, .lost = rec.lost,
        .costs = costs, .wcet = wcet,
        .decode_optimistic = costs.decode / static_cast<Duration>(iters)};
    obs::analysis::emit_job_spec(*tracer, w, track);
  }

  /// Runs a parallelizable stage with migration; returns subtask counts.
  void run_stage_migrating(unsigned self_id, phy::UplinkRxJob& job,
                           const Job& j, std::size_t subtasks,
                           Duration tp_estimate, bool is_fft,
                           StageTiming& timing) {
    const obs::Stage stage = is_fft ? obs::Stage::kFft : obs::Stage::kDecode;
    unsigned recovered_here = 0;
    auto run_subtask = [&](std::size_t i) {
      if (is_fft)
        rx->run_fft_subtask(job, i);
      else
        rx->run_decode_subtask(job, i);
    };

    // Plan from the CPU-state table snapshots.
    const TimePoint now = clock.now();
    std::vector<sched::MigrationCandidate> cands;
    for (unsigned k = 0; k < table.size(); ++k) {
      if (k == self_id) continue;
      if (workers[k]->dead.load(std::memory_order_acquire)) continue;
      const auto snap = table.get(k);
      Duration window =
          snap.activity == CoreActivity::kIdle ? snap.horizon - now : 0;
      if (const fault::Hooks* h = fault::active(); h && h->plan_window)
        h->plan_window(self_id, k, window);
      if (window > 0) cands.push_back({k, window});
    }
    sched::sort_candidates(cands);
    sched::MigrationPlan& plan = workers[self_id]->plan;
    sched::plan_migration(static_cast<unsigned>(subtasks),
                          std::max<Duration>(tp_estimate, 1), migration_cost,
                          cands, plan);

    // Publish chunks: claim target mailboxes; a failed claim (the core just
    // went active) simply keeps those subtasks local.
    struct LiveChunk {
      std::atomic<std::size_t> next{0};
      std::atomic<std::size_t> completed{0};
      std::unique_ptr<std::atomic<std::uint8_t>[]> done;
      std::size_t first = 0;
      std::size_t count = 0;
      unsigned core = 0;
    };
    std::vector<std::shared_ptr<LiveChunk>> live;
    std::size_t assigned_from_tail = 0;
    for (const auto& chunk : plan.chunks) {
      Mailbox& box = workers[chunk.core]->mailbox;
      if (!box.try_claim()) continue;
      auto lc = std::make_shared<LiveChunk>();
      lc->count = chunk.count;
      lc->core = chunk.core;
      lc->done =
          std::make_unique<std::atomic<std::uint8_t>[]>(chunk.count);
      for (std::size_t i = 0; i < chunk.count; ++i)
        lc->done[i].store(0, std::memory_order_relaxed);
      assigned_from_tail += chunk.count;
      lc->first = subtasks - assigned_from_tail;
      lc->next.store(lc->first);
      MigratedChunk mc;
      mc.run_subtask = run_subtask;
      mc.first = lc->first;
      mc.count = lc->count;
      mc.next_index = &lc->next;
      mc.completed = &lc->completed;
      mc.done = lc->done.get();
      mc.keepalive = lc;
      mc.bs = j.bs;
      mc.index = j.index;
      mc.src_core = self_id;
      mc.stage = stage;
      box.fill(std::move(mc));
      RTOPEX_TRACE_NOW(trc(), .bs = j.bs, .index = j.index,
                       .a = chunk.core,
                       .b = static_cast<std::uint32_t>(chunk.count),
                       .core = self_id, .kind = obs::EventKind::kOffload,
                       .stage = stage);
      migrations.fetch_add(chunk.count, std::memory_order_relaxed);
      if (is_fft)
        timing.fft_migrated += chunk.count;
      else
        timing.decode_migrated += chunk.count;
      live.push_back(std::move(lc));
    }
    const std::size_t local_end = subtasks - assigned_from_tail;

    // Local subtasks: range [0, local_end).
    for (std::size_t i = 0; i < local_end; ++i) run_subtask(i);

    // Check result flags; recover unfinished migrated subtasks by claiming
    // from the same counters (no duplicate execution possible).
    for (const auto& lc : live) {
      for (;;) {
        const std::size_t i =
            lc->next.fetch_add(1, std::memory_order_acq_rel);
        if (i >= lc->first + lc->count) break;
        run_subtask(i);
        lc->done[i - lc->first].store(1, std::memory_order_release);
        lc->completed.fetch_add(1, std::memory_order_acq_rel);
        recoveries.fetch_add(1, std::memory_order_relaxed);
        timing.recovered += 1;
        ++recovered_here;
      }
    }
    // Withdraw chunks the host never started, then wait out any host that
    // is mid-subtask (normally bounded by one subtask) — the stage's
    // buffers must not be written after this function returns. The wait
    // backs off (pause -> yield -> sleep) and, when a completion-flag
    // timeout is configured, gives up after it expires *if* the host has
    // provably parked: a parked host returned from its loop and will never
    // write again, so the unfinished claimed subtasks (identified by the
    // per-subtask done flags) are re-executed locally. A slow-but-alive
    // host is always waited out — correctness over latency.
    const Duration flag_timeout = config.resilience.completion_flag_timeout;
    for (const auto& lc : live) {
      workers[lc->core]->mailbox.try_revoke();
      auto claimed = [&] {
        return std::min(lc->next.load(std::memory_order_acquire),
                        lc->first + lc->count) -
               lc->first;
      };
      const TimePoint wait_start = clock.now();
      bool timed_out = false;
      unsigned spins = 0;
      while (lc->completed.load(std::memory_order_acquire) < claimed()) {
        if (flag_timeout > 0 && !timed_out &&
            clock.now() - wait_start > flag_timeout) {
          timed_out = true;
          flag_timeouts.fetch_add(1, std::memory_order_relaxed);
        }
        if (timed_out &&
            workers[lc->core]->parked.load(std::memory_order_acquire)) {
          for (std::size_t i = 0; i < claimed(); ++i) {
            std::uint8_t expected = 0;
            if (!lc->done[i].compare_exchange_strong(
                    expected, 2, std::memory_order_acq_rel))
              continue;
            run_subtask(lc->first + i);
            lc->completed.fetch_add(1, std::memory_order_acq_rel);
            recoveries.fetch_add(1, std::memory_order_relaxed);
            timing.recovered += 1;
            ++recovered_here;
          }
          break;
        }
        if (spins < 1024) {
          ++spins;
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        } else if (spins < 4096) {
          ++spins;
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
    }
    if (recovered_here > 0)
      RTOPEX_TRACE_NOW(trc(), .bs = j.bs, .index = j.index,
                       .b = recovered_here, .core = self_id,
                       .kind = obs::EventKind::kRecovery, .stage = stage);
  }

  /// Carry-over between the pre-decode and post-decode halves of one
  /// subframe, split so a pass can decode the admitted subframes of several
  /// drained jobs together between the halves.
  struct JobProgress {
    SubframeRecord rec;
    StageScope scope;
    std::size_t fft_n = 0;
    std::size_t dec_n = 0;  ///< estimated until decode_prepare counts them.
    Duration dec_sub_est = 0;
  };

  /// One worker pass over the 1..batch jobs `drained` (job_bufs[i] holds
  /// drained[i]'s buffers; `ws` serves the non-migrating stages). Each job
  /// runs its front half in arrival order; then every admitted one decodes:
  /// through the migrating decode for an RT-OPEX subframe of more than one
  /// code block, in one cross-subframe SoA batch when throughput batching is
  /// on (bit-identical to the per-subtask loop — the kernel differential
  /// tests assert it; blocks from different basestations fill out lanes one
  /// subframe would leave empty), or block by block otherwise, the
  /// granularity the slack estimates and migration are built around.
  /// A pass of two or more jobs is fused: its decode window is profiled as
  /// one root span (no subframe's span stays open across another's) and
  /// attributed to the records in proportion to their code blocks, while
  /// each record's completion stays its own finalize.
  void process_pass(unsigned self_id, std::span<phy::UplinkRxJob> job_bufs,
                    phy::UplinkRxResult& rx_result,
                    std::span<const Job> drained, bool migrate,
                    phy::DecodeWorkspace& ws,
                    std::vector<SubframeRecord>& out) {
    const bool fused = drained.size() > 1;
    std::array<JobProgress, kMaxBatch> prog;
    std::array<phy::UplinkRxJob*, kMaxBatch> ready{};
    std::array<std::size_t, kMaxBatch> ready_idx{};
    std::size_t n_ready = 0;
    std::size_t total_blocks = 0;
    for (std::size_t i = 0; i < drained.size(); ++i) {
      if (!process_job_front(self_id, job_bufs[i], drained[i], migrate, fused,
                             ws, prog[i])) {
        out.push_back(finish(self_id, drained[i], prog[i]));
        continue;
      }
      ready[n_ready] = &job_bufs[i];
      ready_idx[n_ready] = i;
      ++n_ready;
      total_blocks += prog[i].dec_n;
    }
    if (n_ready == 0) return;

    // A fused pass times its decode window as one root "decode" span. Its
    // trace events stay per subframe (each decode kStageBegin/kStageEnd
    // brackets that subframe's own wait and finalize), so the window scope
    // has no tracer.
    JobProgress& head = prog[ready_idx[0]];
    const Job& head_job = drained[ready_idx[0]];
    StageScope window(clock, /*tracer=*/nullptr, prof(), self_id, head_job.bs,
                      head_job.index);
    if (fused) window.edge(obs::Stage::kDecode);
    if (migrate && head.dec_n > 1) {  // RT-OPEX passes hold one job
      run_stage_migrating(self_id, *ready[0], head_job, head.dec_n,
                          head.dec_sub_est, /*is_fft=*/false,
                          head.rec.timing);
    } else if (config.throughput.batch > 1) {
      rx->run_decode_batch(
          std::span<phy::UplinkRxJob* const>(ready.data(), n_ready), ws);
    } else {
      for (std::size_t s = 0; s < head.dec_n; ++s)
        rx->run_decode_subtask(*ready[0], s, ws);
    }
    const Duration window_ns = fused ? window.edge() : 0;
    if (n_ready > 1)
      batched_subframes.fetch_add(n_ready, std::memory_order_relaxed);

    for (std::size_t k = 0; k < n_ready; ++k) {
      JobProgress& p = prog[ready_idx[k]];
      Duration attr = -1;
      if (fused)
        attr = total_blocks > 0 ? window_ns * static_cast<Duration>(p.dec_n) /
                                      static_cast<Duration>(total_blocks)
                                : window_ns;
      process_job_back(*ready[k], rx_result, drained[ready_idx[k]], ws, p,
                       attr);
      out.push_back(finish(self_id, drained[ready_idx[k]], p));
    }
  }

  /// Pre-decode half: arrival wait, classification, slack check, FFT and
  /// demod stages and decode_prepare. Returns true when the subframe reached
  /// the decode stage; false when it ended early (late arrival or slack
  /// drop) — p.rec is complete then. Non-migrating stages run out of `ws`.
  bool process_job_front(unsigned self_id, phy::UplinkRxJob& job, const Job& j,
                         bool migrate, bool fused, phy::DecodeWorkspace& ws,
                         JobProgress& p) {
    p = JobProgress{};
    p.scope = StageScope(clock, trc(), prof(), self_id, j.bs, j.index);
    SubframeRecord& rec = p.rec;
    StageScope& scope = p.scope;
    rec.bs = j.bs;
    rec.index = j.index;
    rec.mcs = j.variant->mcs;
    rec.radio_time = j.radio_time;
    rec.arrival = j.arrival;
    // The ticker may enqueue a very late delivery ahead of its modeled
    // arrival so it never stalls its own schedule; emulate the IQ data not
    // being there yet (no point waiting past the deadline — the subframe
    // is a late arrival either way).
    while (clock.now() < j.arrival && clock.now() <= j.deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    table.set(self_id, CoreActivity::kActive, 0);
    RTOPEX_TRACE_EVENT(trc(), .ts = j.arrival, .bs = j.bs, .index = j.index,
                       .a = obs::clamp_payload_ns(j.deadline - j.arrival),
                       .b = obs::clamp_payload_ns(j.arrival - j.radio_time),
                       .core = self_id, .kind = obs::EventKind::kArrival);
    rec.start = scope.open(fused);

    const std::size_t fft_n = rx->fft_subtask_count();
    p.fft_n = fft_n;
    p.dec_n = phy::num_code_blocks(j.variant->mcs, config.phy.num_prb());

    // A subframe that arrived after its deadline had already passed (a late
    // fronthaul delivery) is classified and skipped regardless of
    // enforce_deadlines — there is no decision to make, the deadline is
    // gone, and decoding it would only stall the queue behind it.
    if (j.arrival > j.deadline) {
      scope.edge();
      rec.completion = scope.at();
      rec.deadline_missed = true;
      rec.late_arrival = true;
      RTOPEX_TRACE_EVENT(trc(), .ts = rec.completion, .bs = j.bs,
                         .index = j.index,
                         .a = obs::clamp_payload_ns(j.arrival - j.deadline),
                         .b = obs::clamp_payload_ns(j.arrival - j.radio_time),
                         .core = self_id, .kind = obs::EventKind::kLate);
      return false;
    }

    rx->begin(job, j.variant->antenna_samples, j.variant->mcs,
              j.variant->tx_subframe_index);

    // Slack check (paper §4.1) through the decode admission rule the sim
    // schedulers share (sched::admit_decode): the FFT + demod estimates set
    // the decode start, and the decode must fit at full quality, or at a
    // shrunk turbo-iteration cap, or the subframe drops. The full-quality
    // estimate is the per-code-block tracker's, which tracks Lm decodes, so
    // capped decodes are costed on the line through (full / Lm, full); with
    // adaptive estimation on, model::refine_decode replaces both with the
    // Eq. (1) fit at the per-BS predicted iteration count (the tracker's
    // figures stay in force until the fit warms up). Without deadline
    // enforcement the check always admits at full quality.
    const unsigned lm = config.phy.max_iterations;
    const model::StageTimes e = estimates();
    const Duration full = e.decode_subtask * static_cast<Duration>(p.dec_n);
    model::DecodeEstimate dec{full, {full / static_cast<Duration>(lm), full},
                              lm};
    if (config.adaptive) {
      std::lock_guard lock(est_mu);
      dec = model::refine_decode(dec, &est, j.bs, j.variant->mcs, lm,
                                 /*fit_full=*/true,
                                 config.resilience.degrade.enabled);
    }
    const Duration fft_est = e.fft_subtask * static_cast<Duration>(fft_n);
    const TimePoint decode_start = clock.now() + fft_est + e.demod;
    const sched::Admission adm = sched::admit_decode(
        decode_start,
        config.enforce_deadlines ? j.deadline
                                 : std::numeric_limits<TimePoint>::max(),
        dec.full, dec.line, dec.assumed, lm, config.resilience.degrade);
    if (adm.cap == 0) {
      scope.edge();
      rec.completion = scope.at();
      rec.deadline_missed = true;
      rec.dropped = true;
      RTOPEX_TRACE_EVENT(trc(), .ts = rec.completion, .bs = j.bs,
                         .index = j.index, .core = self_id,
                         .kind = obs::EventKind::kDrop);
      return false;
    }

    scope.edge(obs::Stage::kFft, obs::clamp_payload_ns(fft_est));
    if (adm.level != DegradeLevel::kNone) {
      job.iteration_cap = adm.cap;
      rec.degrade = adm.level;
      RTOPEX_TRACE_EVENT(trc(), .ts = scope.at(), .bs = j.bs, .index = j.index,
                         .a = adm.cap, .core = self_id,
                         .kind = obs::EventKind::kDegrade,
                         .stage = obs::Stage::kDecode);
    }
    if (migrate) {
      run_stage_migrating(self_id, job, j, fft_n, e.fft_subtask,
                          /*is_fft=*/true, rec.timing);
    } else {
      for (std::size_t i = 0; i < fft_n; ++i) rx->run_fft_subtask(job, i, ws);
    }
    scope.set_payload(static_cast<std::uint32_t>(fft_n), 0);
    rec.timing.fft = scope.edge(obs::Stage::kDemod,
                                obs::clamp_payload_ns(estimates().demod));
    {
      std::lock_guard lock(est_mu);
      est.observe_fft(rec.timing.fft / static_cast<Duration>(fft_n));
    }

    rx->demod_prepare(job);
    for (std::size_t i = 0; i < rx->demod_subtask_count(); ++i)
      rx->run_demod_subtask(job, i);
    // The decode opens under the estimate the slack check admitted it at.
    rec.timing.demod =
        scope.edge(obs::Stage::kDecode, obs::clamp_payload_ns(adm.estimate),
                   adm.iterations);
    {
      std::lock_guard lock(est_mu);
      est.observe_demod(rec.timing.demod);
    }

    // The decode stage itself runs in the pass.
    rx->decode_prepare(job, ws);
    p.dec_n = rx->decode_subtask_count(job);
    // Migration chunks are sized with the per-code-block estimate.
    p.dec_sub_est = estimates().decode_subtask;
    return true;
  }

  /// Post-decode half: finalize, the decode's end edge, decode timing and
  /// estimate updates. `decode_attr` < 0 takes the decode width from the
  /// scope (decode_prepare through finalize); >= 0 substitutes the pass's
  /// attribution (a fused pass: this subframe's share of the decode window —
  /// its own decode_prepare and finalize tails stay outside the figure).
  void process_job_back(phy::UplinkRxJob& job, phy::UplinkRxResult& rx_result,
                        const Job& j, phy::DecodeWorkspace& ws,
                        JobProgress& p, Duration decode_attr) {
    SubframeRecord& rec = p.rec;
    const std::size_t dec_n = p.dec_n;
    rx->finalize_into(job, ws, rx_result);
    p.scope.set_payload(
        obs::profile::pack_decode_regressors(
            phy::modulation_order(j.variant->mcs), config.phy.num_antennas,
            j.variant->mcs),
        obs::profile::pack_decode_load(static_cast<unsigned>(dec_n),
                                       rx_result.iterations));
    const Duration measured = p.scope.edge();
    rec.timing.decode = decode_attr >= 0 ? decode_attr : measured;
    rec.completion = p.scope.at();
    rec.crc_ok = rx_result.crc_ok;
    rec.iterations = rx_result.iterations;
    rec.deadline_missed = rec.completion > j.deadline;
    // A capped decode is cheaper than a full-quality one; feeding it into
    // the per-code-block tracker would bias the full-quality estimate
    // downward and admit subframes that then miss.
    if (job.iteration_cap == 0) {
      std::lock_guard lock(est_mu);
      est.observe_decode(j.bs, j.variant->mcs, rec.iterations,
                         rec.timing.decode,
                         rec.timing.decode / static_cast<Duration>(dec_n));
    }
  }

  /// The one epilogue of every subframe — late, dropped or decoded:
  /// kSubframeEnd and its span's end at the subframe's last edge, then the
  /// workload capture.
  SubframeRecord finish(unsigned self_id, const Job& j, JobProgress& p) {
    p.scope.close(p.rec.deadline_missed, p.rec.iterations);
    capture_job(self_id, j, j.variant->mcs, p.rec, p.fft_n, p.dec_n);
    return p.rec;
  }

  /// Kill switch (fault injection): a worker that reads true parks for the
  /// rest of the run. It marks itself parked *before* it stops servicing
  /// anything, never abandons a claimed subtask (the check sits between
  /// jobs and between hosted subtasks), and keeps the thread joinable.
  bool should_die(unsigned id) {
    const fault::Hooks* h = fault::active();
    return h && h->kill_worker && h->kill_worker(id);
  }

  void park(unsigned id) {
    WorkerState& self = *workers[id];
    self.parked.store(true, std::memory_order_release);
    table.set(id, CoreActivity::kActive, 0);
    while (running.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  /// Moves up to `batch` queued jobs into `drained`; false when it took
  /// none. RT-OPEX (`wait` false) polls the lock-free count and never
  /// blocks. The other modes wait up to 5 ms on the queue, so the kill
  /// switch is polled even when the queue stays empty. A pass fuses only
  /// subframes whose IQ data has already arrived: the ticker enqueues ahead
  /// of the modeled arrival, and batching a future delivery would make the
  /// pass sleep on it mid-batch while peers sit idle. The first job is
  /// taken unconditionally (a batch of one waits on its arrival itself).
  bool take_jobs(JobQueue& q, std::size_t batch, bool wait,
                 std::vector<Job>& drained) {
    drained.clear();
    if (!wait && q.pending.load(std::memory_order_acquire) <= 0) return false;
    std::unique_lock lock(q.mu);
    if (wait)
      q.cv.wait_for(lock, std::chrono::milliseconds(5),
                    [&] { return !q.jobs.empty() || !running.load(); });
    // The queue may be empty on a spurious wake, at shutdown, or after the
    // watchdog requeued this worker's jobs elsewhere.
    while (!q.jobs.empty() && drained.size() < batch) {
      if (!drained.empty() && q.jobs.front().arrival > clock.now()) break;
      drained.push_back(q.jobs.front());
      q.jobs.pop_front();
    }
    q.pending.fetch_sub(static_cast<int>(drained.size()),
                        std::memory_order_acq_rel);
    return !drained.empty();
  }

  /// RT-OPEX's waiting state: publish idleness with the predicted horizon,
  /// then serve at most one migrated chunk, out of this thread's workspace.
  /// Returns false when the worker parked on the kill switch.
  bool host_chunk(unsigned id) {
    WorkerState& self = *workers[id];
    table.set(id, CoreActivity::kIdle,
              self.next_own_arrival.load(std::memory_order_acquire));
    if (const fault::Hooks* h = fault::active();
        h && h->host_take && !h->host_take(id)) {
      std::this_thread::yield();
      return true;
    }
    MigratedChunk chunk;
    if (!self.mailbox.try_take(chunk)) {
      std::this_thread::yield();
      return true;
    }
    table.set(id, CoreActivity::kHosting, 0);
    StageScope scope(clock, trc(), prof(), id, chunk.bs, chunk.index);
    scope.open_host(chunk.src_core, chunk.stage);
    std::uint32_t served = 0;
    for (;;) {
      // Preemption and kill checks between subtasks — a killed host
      // finishes the subtask it claimed before parking, so it never
      // strands a claimed-but-incomplete index.
      if (self.queue.pending.load(std::memory_order_acquire) > 0) break;
      if (should_die(id)) {
        self.mailbox.release();
        park(id);
        return false;
      }
      if (const fault::Hooks* h = fault::active();
          h && h->host_subtask && !h->host_subtask(id))
        break;
      const std::size_t i =
          chunk.next_index->fetch_add(1, std::memory_order_acq_rel);
      if (i >= chunk.first + chunk.count) break;
      chunk.run_subtask(i);
      if (chunk.done)
        chunk.done[i - chunk.first].store(1, std::memory_order_release);
      chunk.completed->fetch_add(1, std::memory_order_acq_rel);
      self.heartbeat.fetch_add(1, std::memory_order_relaxed);
      ++served;
    }
    scope.close_host(chunk.src_core, chunk.stage, served);
    self.mailbox.release();
    return true;
  }

  /// The one worker loop of every mode: take up to `batch` queued jobs and
  /// run them as one pass, until the run stops. Only the wait differs: an
  /// RT-OPEX worker polls its queue and hosts migrated chunks while it has
  /// none (paper §4.1), the others block on their queue. With throughput
  /// batching on, a pass fuses the decode stages of its jobs into one
  /// cross-subframe SoA batch; draining never waits for the queue to fill,
  /// so an underloaded node degenerates to batch-of-1.
  void worker(unsigned id) {
    if (config.pin_threads) pin_current_thread(worker_pin_core(id));
    set_current_thread_name("rtopex-w" + std::to_string(id));
    const bool rtopex = config.mode == RuntimeMode::kRtOpex;
    // 1 in RT-OPEX mode, which rejects batch > 1 at construction.
    const std::size_t batch = std::min<std::size_t>(
        std::max(1u, config.throughput.batch), kMaxBatch);
    WorkerState& self = *workers[id];
    JobQueue& queue =
        config.mode == RuntimeMode::kGlobal ? global_queue : self.queue;
    std::vector<phy::UplinkRxJob> job_bufs;
    job_bufs.reserve(batch);
    for (std::size_t b = 0; b < batch; ++b) job_bufs.push_back(rx->make_job());
    phy::UplinkRxResult rx_result;
    std::vector<Job> drained;
    drained.reserve(batch);
    // This thread's own stages and the chunks it hosts share one workspace.
    phy::DecodeWorkspace& ws = phy::UplinkRxProcessor::thread_workspace();
    prewarm_workspace(ws);
    workers_ready.fetch_add(1, std::memory_order_release);
    for (;;) {
      if (should_die(id)) return park(id);
      self.heartbeat.fetch_add(1, std::memory_order_relaxed);
      if (take_jobs(queue, batch, /*wait=*/!rtopex, drained)) {
        process_pass(id, job_bufs, rx_result, drained, /*migrate=*/rtopex, ws,
                     self.records);
        continue;
      }
      if (!running.load(std::memory_order_acquire)) return;
      if (rtopex && !host_chunk(id)) return;
    }
  }

  // ---- transport side ---------------------------------------------------

  void push_job(const Job& j) {
    if (config.mode == RuntimeMode::kGlobal) return global_queue.push(j);
    const unsigned wid = slots[j.bs][j.index % config.cores_per_bs];
    WorkerState& w = *workers[wid];
    // A push to a caught-up worker restarts its stall timer: the watchdog
    // must measure "queued work with no progress" from the moment the work
    // arrived, not from its last (sparse, once-per-tick) observation —
    // otherwise idle time between checks counts as stall time, and a
    // survivor handed a requeued orphan can be declared dead in the very
    // watchdog pass that failed over the real stall. Ticker thread owns
    // both push_job and last_progress, so no synchronization is needed.
    if (w.queue.pending.load(std::memory_order_acquire) <= 0)
      last_progress[wid] = clock.now();
    // Predict this worker's following own arrival (one stride later).
    // After a repartition the worker may own extra slots and the stride
    // is only an upper bound on its idle window — a conservative horizon
    // under-migrates, it never corrupts.
    w.next_own_arrival.store(
        j.arrival +
            static_cast<Duration>(config.cores_per_bs) * config.subframe_period,
        std::memory_order_release);
    w.queue.push(j);
  }

  // ---- watchdog (ticker thread) -----------------------------------------

  /// Declares `id` dead, rebuilds the partition table without it and
  /// requeues its stranded jobs onto the survivors.
  void fail_over(unsigned id) {
    WorkerState& w = *workers[id];
    w.dead.store(true, std::memory_order_release);
    // Never a migration target again: pin its table entry to active.
    table.set(id, CoreActivity::kActive, 0);
    ++res_failovers;
    RTOPEX_TRACE_NOW(trc(), .a = id, .core = ticker_track(),
                     .kind = obs::EventKind::kWatchdogFire);

    std::vector<unsigned> survivors;
    for (unsigned k = 0; k < workers.size(); ++k)
      if (!workers[k]->dead.load(std::memory_order_acquire))
        survivors.push_back(k);
    if (survivors.empty()) return;  // nothing left to repartition onto

    // Reassign every slot the dead worker owned, round-robin across the
    // survivors (preferring the dead worker's own basestation peers first
    // simply by survivor order).
    std::size_t rr = 0;
    for (auto& per_bs : slots)
      for (auto& slot : per_bs)
        if (slot == id) slot = survivors[rr++ % survivors.size()];
    ++res_repartitions;

    // Drain the dead worker's queue and re-push through the new table.
    // Holding its mutex here is what makes the counter adjustment safe
    // against the (possibly still live) worker's own pop.
    std::deque<Job> orphans;
    {
      std::lock_guard lock(w.queue.mu);
      orphans.swap(w.queue.jobs);
      w.queue.pending.fetch_sub(static_cast<int>(orphans.size()),
                                std::memory_order_acq_rel);
    }
    for (const Job& j : orphans) {
      push_job(j);
      ++res_requeued;
    }
  }

  /// Stall detection: a worker whose heartbeat has not advanced across one
  /// whole watchdog_timeout while it had queued work is declared dead. A
  /// worker blocked with an empty queue is idle, not dead; one slowly
  /// grinding through jobs heartbeats per job, so the timeout must exceed
  /// the worst single-job latency (it defaults to 10x a typical decode).
  void check_watchdog(TimePoint now) {
    if (!config.resilience.enable_watchdog ||
        config.mode == RuntimeMode::kGlobal || workers.size() < 2)
      return;
    for (unsigned k = 0; k < workers.size(); ++k) {
      WorkerState& w = *workers[k];
      if (w.dead.load(std::memory_order_acquire)) continue;
      const std::uint64_t hb = w.heartbeat.load(std::memory_order_relaxed);
      if (hb != last_heartbeat[k] ||
          w.queue.pending.load(std::memory_order_acquire) <= 0) {
        last_heartbeat[k] = hb;
        last_progress[k] = now;
        continue;
      }
      if (now - last_progress[k] >= config.resilience.watchdog_timeout)
        fail_over(k);
    }
  }

  /// Feeds every newly stored event to the health monitor (oldest first)
  /// and advances evaluation to the present. Store slices arrive per-ring
  /// and are only loosely time-ordered, so the new slice is sorted before
  /// feeding; the monitor's two-period evaluation lag absorbs the rest of
  /// the collection delay. Ticker thread only.
  void feed_health() {
    if (!health) return;
    const std::vector<obs::TraceEvent>& events = tracer->store().events;
    if (health_fed < events.size()) {
      std::vector<obs::TraceEvent> slice(
          events.begin() + static_cast<std::ptrdiff_t>(health_fed),
          events.end());
      health_fed = events.size();
      std::stable_sort(slice.begin(), slice.end(),
                       [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                         return a.ts < b.ts;
                       });
      for (const obs::TraceEvent& ev : slice) {
        // Skip our own output, re-surfaced by the next collect().
        if (ev.kind == obs::EventKind::kAlert ||
            ev.kind == obs::EventKind::kAlertClear)
          continue;
        health->observe(ev);
      }
    }
    health->advance(clock.now());
  }

  /// The report counters the ticker may read while workers run: atomics
  /// and its own state.
  void fill_counters(RuntimeReport& report) const {
    report.migrations = migrations.load();
    report.recoveries = recoveries.load();
    report.batched_subframes = batched_subframes.load();
    ResilienceMetrics& res = report.resilience;
    res.failovers = res_failovers;
    res.repartitions = res_repartitions;
    res.requeued_jobs = res_requeued;
    res.flag_timeouts = flag_timeouts.load();
    res.lost_subframes = lost_records.size();
  }

  /// Mid-run Prometheus snapshot: the series fill_registry() shares with
  /// it, over the live counters and the ticker-owned trace store. Latency
  /// histograms need the worker-private records and appear only in the
  /// post-run snapshot.
  std::string render_live_metrics() {
    obs::MetricsRegistry reg;
    reg.add_gauge("rtopex_runtime_uptime_seconds",
                  "Wall-clock run time so far.",
                  static_cast<double>(clock.now()) / 1e9);
    RuntimeReport live;
    fill_counters(live);
    fill_live_series(live, tracer ? &tracer->store() : nullptr, reg);
    if (health) health->fill_registry(reg);
    return reg.render();
  }
};

NodeRuntime::NodeRuntime(const RuntimeConfig& config) {
  if (config.num_basestations == 0 || config.subframes_per_bs == 0 ||
      config.mcs_cycle.empty())
    throw std::invalid_argument("NodeRuntime: empty configuration");
  // A zero worker count would leave pushed jobs queued forever (the drain
  // loop in run() would hang); reject up front.
  if (Impl::worker_count(config) == 0)
    throw std::invalid_argument("NodeRuntime: zero worker cores");
  if (config.subframe_period <= 0 || config.deadline_budget <= 0)
    throw std::invalid_argument("NodeRuntime: non-positive period or budget");
  // rtt_half at or beyond the deadline budget means every subframe is
  // already dead on arrival — a configuration error, not a workload.
  if (config.rtt_half < 0 || config.rtt_half >= config.deadline_budget)
    throw std::invalid_argument(
        "NodeRuntime: rtt_half must be in [0, deadline_budget)");
  for (const unsigned mcs : config.mcs_cycle)
    if (mcs > phy::kMaxMcs)
      throw std::invalid_argument("NodeRuntime: mcs_cycle entry > 27");
  // A zero or negative estimate seed would admit every subframe (or divide
  // the migration planner's chunk sizing by zero downstream).
  if (config.initial_fft_subtask_est <= 0 ||
      config.initial_decode_subtask_est <= 0 || config.initial_demod_est <= 0)
    throw std::invalid_argument(
        "NodeRuntime: planning estimate seeds must be positive");
  const ResilienceConfig& res = config.resilience;
  if (res.enable_watchdog && res.watchdog_timeout <= 0)
    throw std::invalid_argument(
        "NodeRuntime: non-positive watchdog_timeout");
  if (res.degrade.enabled &&
      (res.degrade.min_iterations == 0 ||
       res.degrade.min_iterations >= config.phy.max_iterations))
    throw std::invalid_argument(
        "NodeRuntime: degrade.min_iterations must be in [1, Lm)");
  if (res.completion_flag_timeout < 0)
    throw std::invalid_argument(
        "NodeRuntime: negative completion_flag_timeout");
  const ThroughputConfig& tp = config.throughput;
  if (tp.batch == 0)
    throw std::invalid_argument("NodeRuntime: throughput.batch must be >= 1");
  if (tp.batch > 16)
    throw std::invalid_argument(
        "NodeRuntime: throughput.batch exceeds the cross-subframe decode "
        "limit (16)");
  if (tp.batch > 1 && config.mode == RuntimeMode::kRtOpex)
    throw std::invalid_argument(
        "NodeRuntime: batching requires partitioned or global mode "
        "(RT-OPEX migrates decode per-subtask)");
  // An explicit pin set must cover every worker — a short list would
  // silently double up workers on shared cores, which defeats isolation.
  if (!tp.worker_cores.empty() &&
      tp.worker_cores.size() < Impl::worker_count(config))
    throw std::invalid_argument(
        "NodeRuntime: worker_cores must list at least one core per worker");
  // Fronthaul fault params are validated by the model's own constructor
  // (inside Impl); anything invalid throws std::invalid_argument there.
  if (config.health.enabled) config.health.validate();
  impl_ = std::make_unique<Impl>(config);
}

NodeRuntime::~NodeRuntime() = default;

RuntimeReport NodeRuntime::run() {
  Impl& im = *impl_;
  const RuntimeConfig& cfg = im.config;

  const unsigned n_workers = Impl::worker_count(cfg);
  // Dedicated ticker core (FlexRAN-style timing isolation): the calling
  // thread is the ticker, so pin it here. Best effort, like all affinity.
  if (cfg.throughput.ticker_core >= 0)
    pin_current_thread(static_cast<unsigned>(cfg.throughput.ticker_core));

  std::vector<std::thread> threads;
  threads.reserve(n_workers);
  for (unsigned i = 0; i < n_workers; ++i)
    threads.emplace_back([&im, i] { im.worker(i); });

  // Start the schedule only once every worker has finished its per-thread
  // setup (and not at construction: variant pre-generation in the Impl
  // constructor can take long enough, notably under sanitizers, to push the
  // first subframes past their deadlines). Batch mode allocates `batch` job
  // buffers per worker — >10 ms of page faults on some hosts — and every
  // worker pre-warms its workspace; the first subframes should pay for
  // neither.
  while (im.workers_ready.load(std::memory_order_acquire) < n_workers)
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  im.clock.reset();

  // Transport ticker: one tick per subframe period, all basestations.
  // The fronthaul fault stream is independent of the payload RNG so that
  // enabling faults does not perturb the generated waveforms.
  Rng fault_rng(cfg.seed ^ 0x9e3779b97f4a7c15ULL);
  const bool faults = cfg.resilience.fronthaul_faults.enabled();
  TimePoint last_metrics = 0;
  // One tick's per-basestation arrivals, reserved once so that no tick
  // allocates for them.
  std::vector<std::pair<TimePoint, unsigned>> deliveries;
  deliveries.reserve(cfg.num_basestations);
  for (std::uint32_t j = 0; j < cfg.subframes_per_bs; ++j) {
    const TimePoint radio_time =
        static_cast<TimePoint>(j) * cfg.subframe_period;
    const TimePoint arrival = radio_time + cfg.rtt_half;
    // Coarse sleep then a short spin to the arrival instant.
    const TimePoint pre = arrival - microseconds(200);
    while (im.clock.now() < pre)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    im.check_watchdog(im.clock.now());
    // The ticker is the sole trace collector: drain every worker ring once
    // per tick so rings never fill under normal load.
    if (im.tracer) im.tracer->collect();
    im.feed_health();
    if (cfg.metrics_period > 0 && cfg.metrics_sink &&
        im.clock.now() - last_metrics >= cfg.metrics_period) {
      last_metrics = im.clock.now();
      cfg.metrics_sink(im.render_live_metrics());
    }
    // Per-basestation jittered arrivals (fault injection); without a hook
    // every basestation arrives at the nominal instant in one batch.
    deliveries.clear();
    for (unsigned bs = 0; bs < cfg.num_basestations; ++bs) {
      TimePoint at = arrival;
      if (faults) {
        const transport::FronthaulFault f = im.fault_model.sample(fault_rng);
        if (f.lost) {
          // The subframe never reaches the node: record it directly and
          // free the slot instead of parking a job a worker would block on.
          SubframeRecord rec;
          rec.bs = bs;
          rec.index = j;
          rec.mcs = cfg.mcs_cycle[(j + bs) % cfg.mcs_cycle.size()];
          rec.radio_time = radio_time;
          rec.lost = true;
          im.lost_records.push_back(rec);
          RTOPEX_TRACE_NOW(im.trc(), .bs = bs, .index = j,
                           .core = im.ticker_track(),
                           .kind = obs::EventKind::kLost);
          // Capture the lost subframe too (on the ticker's own track): a
          // replay must see the full offered load, losses included.
          Job lost_job;
          lost_job.bs = bs;
          lost_job.index = j;
          lost_job.radio_time = radio_time;
          lost_job.arrival = arrival;
          lost_job.deadline = radio_time + cfg.deadline_budget;
          im.capture_job(im.ticker_track(), lost_job, rec.mcs, rec,
                         im.rx->fft_subtask_count(),
                         phy::num_code_blocks(rec.mcs, cfg.phy.num_prb()));
          continue;
        }
        at += f.extra_delay;
      }
      if (const fault::Hooks* h = fault::active(); h && h->transport_jitter)
        at += std::max<Duration>(0, h->transport_jitter(bs, j));
      deliveries.emplace_back(at, bs);
    }
    std::sort(deliveries.begin(), deliveries.end());
    for (const auto& [at, bs] : deliveries) {
      // Cap the wait on a late delivery at one tick so the ticker never
      // falls behind the schedule; the job's recorded arrival stays `at`.
      im.clock.spin_until(std::min(at, arrival + cfg.subframe_period));
      Job job;
      const unsigned mcs =
          cfg.mcs_cycle[(j + bs) % cfg.mcs_cycle.size()];
      job.variant = &im.variant_for(bs, mcs);
      job.bs = bs;
      job.index = j;
      job.radio_time = radio_time;
      job.arrival = at;
      job.deadline = radio_time + cfg.deadline_budget;
      im.push_job(job);
    }
  }

  // Drain: wait until all queues empty, then stop the workers.
  auto queues_empty = [&im] {
    if (!im.global_queue.empty()) return false;
    for (const auto& w : im.workers)
      if (!w->queue.empty()) return false;
    return true;
  };
  while (!queues_empty()) {
    im.check_watchdog(im.clock.now());
    if (im.tracer) im.tracer->collect();
    im.feed_health();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  im.running.store(false);
  im.global_queue.cv.notify_all();
  for (const auto& w : im.workers) w->queue.cv.notify_all();
  for (auto& t : threads) t.join();

  RuntimeReport report;
  for (const auto& w : im.workers)
    report.records.insert(report.records.end(), w->records.begin(),
                          w->records.end());
  report.records.insert(report.records.end(), im.lost_records.begin(),
                        im.lost_records.end());
  std::sort(report.records.begin(), report.records.end(),
            [](const SubframeRecord& a, const SubframeRecord& b) {
              if (a.radio_time != b.radio_time) return a.radio_time < b.radio_time;
              return a.bs < b.bs;
            });
  im.fill_counters(report);
  ResilienceMetrics& res = report.resilience;
  for (const auto& r : report.records) {
    if (r.deadline_missed) ++report.deadline_misses;
    if (r.dropped) ++report.dropped;
    if (r.late_arrival) ++res.late_arrivals;
    res.degrade_histogram[static_cast<unsigned>(r.degrade)] +=
        !r.lost && !r.dropped && !r.late_arrival;
    if (r.degrade != DegradeLevel::kNone) {
      ++res.degraded;
      if (!r.crc_ok) ++res.degraded_decode_failures;
    }
    // CRC failures count ordinary decode failures only: subframes that
    // were actually decoded at full quality. Lost/late subframes were
    // never decoded; degraded failures are accounted above.
    if (!r.dropped && !r.lost && !r.late_arrival &&
        r.degrade == DegradeLevel::kNone && !r.crc_ok)
      ++report.crc_failures;
  }
  // Workers have joined: one final drain picks up everything they emitted
  // after the ticker's last pass, then the health monitor finishes (its
  // trailing clear events land in the store through one more collect).
  if (im.tracer && im.health) {
    im.tracer->collect();
    im.feed_health();
    im.health->finish(im.clock.now());
    im.tracer->collect();
    report.alerts = im.health->alerts();
    report.health = im.health->snapshot();
  }
  if (im.tracer && cfg.trace.enabled) report.trace = im.tracer->take();
  if (im.profiler) report.profile = im.profiler->take();
  return report;
}

void fill_registry(const RuntimeReport& report,
                   obs::MetricsRegistry& registry) {
  obs::Histogram stage_us[obs::kNumStages];
  obs::Histogram processing_us;
  for (const auto& r : report.records) {
    if (r.lost || r.late_arrival || r.dropped) continue;
    stage_us[static_cast<unsigned>(obs::Stage::kFft)].add(to_us(r.timing.fft));
    stage_us[static_cast<unsigned>(obs::Stage::kDemod)].add(
        to_us(r.timing.demod));
    stage_us[static_cast<unsigned>(obs::Stage::kDecode)].add(
        to_us(r.timing.decode));
    processing_us.add(to_us(r.completion - r.start));
  }

  registry.add_counter("rtopex_runtime_subframes_total",
                       "Subframe records produced by the run.",
                       static_cast<double>(report.records.size()));
  registry.add_counter("rtopex_runtime_deadline_misses_total",
                       "Subframes past their deadline (incl. drops/losses).",
                       static_cast<double>(report.deadline_misses));
  registry.add_counter("rtopex_runtime_dropped_total",
                       "Subframes rejected by the slack check.",
                       static_cast<double>(report.dropped));
  registry.add_counter("rtopex_runtime_crc_failures_total",
                       "Full-quality decodes that failed CRC.",
                       static_cast<double>(report.crc_failures));
  const ResilienceMetrics& res = report.resilience;
  registry.add_counter("rtopex_runtime_late_arrivals_total",
                       "Subframes that arrived after their deadline.",
                       static_cast<double>(res.late_arrivals));
  registry.add_counter("rtopex_runtime_degraded_total",
                       "Subframes decoded below full quality.",
                       static_cast<double>(res.degraded));
  registry.add_counter(
      "rtopex_runtime_degraded_decode_failures_total",
      "Degraded decodes that failed CRC.",
      static_cast<double>(res.degraded_decode_failures));
  fill_live_series(report, &report.trace, registry);

  registry.add_histogram("rtopex_runtime_processing_time_us",
                         "Per-subframe processing time (start to completion).",
                         processing_us);
  for (unsigned s = 1; s < obs::kNumStages; ++s)
    registry.add_histogram(
        "rtopex_runtime_stage_us", "Per-stage processing time.", stage_us[s],
        {{"stage", obs::to_string(static_cast<obs::Stage>(s))}});

  // Health series (present only when the run had health enabled — the
  // snapshot carries its per-node row then).
  if (!report.health.nodes.empty())
    obs::health::fill_registry(report.health, report.alerts, registry);

  // Profile series (present only when the run had profiling enabled).
  if (!report.profile.samples.empty() || report.profile.drops > 0)
    obs::profile::fill_registry(obs::profile::aggregate(report.profile),
                                registry);
}

}  // namespace rtopex::runtime
