// rtopex_bench: one end-to-end benchmark for the real-thread node and the
// virtual-time simulator, plus a per-layer ledger.
//
//   rtopex_bench --workload=<name>|all --seed=N [--seconds=S] [--smoke]
//                [--json=PATH] [--trace=PATH] [--whatif-baseline=PATH]
//
// Workloads (README.md says why each exists):
//   rtopex_paced             RT-OPEX, 1 BS x 2 workers, 1 ms period, load 0.55
//   rtopex_paced_observed    the same with trace + health + profile on
//   global_batched_saturated global, 2 BS, 2 workers, batch 16, 500 us period
//   sim_load_sweep           the what-if grid in virtual time, one thread
//
// Each workload repeats a short measured unit ("rep") for --seconds seconds
// of wall time; a timing is taken from the fastest quarter of the reps and
// set-up time is their median. A live workload's rep r runs the r-th
// segment of the seed's load trace. Every end-to-end metric is
// printed as `name value unit`; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Output checks (one record
// per offered subframe, CRC, sim determinism, the what-if baseline at seed 1,
// PHY-ledger closure) make the program exit 1 when any fails.
//
// --trace=PATH is the traced run: after the same end-to-end phase it pushes
// each live workload's MCS sequence through the UplinkRxProcessor stage
// calls one span per call, reports the per-layer metrics instead of the
// end-to-end ones, and writes the benchmark's own spans as Chrome trace JSON.
// --smoke shrinks every workload (300 subframes at a 5 ms period, the
// minimum number of reps) while keeping every check on.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "common/rng.hpp"
#include "common/thread_utils.hpp"
#include "core/experiment.hpp"
#include "obs/analysis/analysis.hpp"
#include "phy/uplink_rx.hpp"
#include "phy/uplink_tx.hpp"
#include "runtime/node_runtime.hpp"
#include "trace/load_trace.hpp"

namespace rtopex::benchmark {
namespace {

constexpr Duration kDeadlineBudget = milliseconds(2);
constexpr Duration kRttHalf = microseconds(500);
/// Worker threads of every live node; with the ticker that is 3 threads, so
/// a 4-vCPU host keeps a core for everything else.
constexpr unsigned kWorkers = 2;

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<Metric> end_to_end;
  std::map<std::string, double> per_layer;  ///< units: per_layer_metrics().
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< CRC failures, missing/duplicate records...
  std::vector<std::string> check_failures;  ///< failed output checks.
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

// Other tenants of a shared host only ever add time to a rep, so a run
// reports its timings from the fastest quarter of its reps: the lower
// quartile of a time, the upper quartile of a rate.
double fastest_quarter_time(const std::vector<double>& v) {
  return percentile(v, 0.25);
}
double fastest_quarter_rate(const std::vector<double>& v) {
  return percentile(v, 0.75);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double seconds_since(std::int64_t t0_ns) {
  return 1e-9 * static_cast<double>(monotonic_ns() - t0_ns);
}

// ------------------------------------------------------------------ spans

/// The benchmark's own spans, kept in memory and written as Chrome trace
/// JSON at exit. Spans nest on the one thread that records them; a
/// disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Runs `body` inside a span and returns the span's duration in ns.
  template <class F>
  std::int64_t span(const char* name, std::int64_t subframe, F&& body) {
    const int parent = open_;
    int self = -1;
    if (enabled_) {
      self = static_cast<int>(spans_.size());
      spans_.push_back({name, 0, 0, parent, subframe});
      open_ = self;
    }
    const std::int64_t t0 = monotonic_ns();
    body();
    const std::int64_t t1 = monotonic_ns();
    if (enabled_) {
      spans_[static_cast<std::size_t>(self)].start_ns = t0;
      spans_[static_cast<std::size_t>(self)].end_ns = t1;
      open_ = parent;
    }
    return t1 - t0;
  }

  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"rtopex_bench\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                    "\"id\":%zu,\"parent\":%d,\"subframe\":%lld}}",
                    i ? "," : "", s.name, 1e-3 * (s.start_ns - origin),
                    1e-3 * (s.end_ns - s.start_ns), i, s.parent,
                    static_cast<long long>(s.subframe));
      out << buf;
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("short write to " + path);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t subframe;
  };
  bool enabled_;
  int open_ = -1;
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- inputs

/// The workload's MCS sequence: a metropolitan load trace around
/// `mean_load`, mapped through the paper's load -> MCS emulation.
std::vector<unsigned> mcs_sequence(std::uint64_t seed, double mean_load,
                                   std::size_t length) {
  trace::BasestationLoadParams params = trace::metropolitan_preset(1)[0];
  params.mean = mean_load;
  const trace::LoadTrace loads =
      trace::generate_load_trace(params, length, seed);
  std::vector<unsigned> mcs(length);
  for (std::size_t j = 0; j < length; ++j)
    mcs[j] = trace::mcs_from_load(loads.load(j));
  return mcs;
}

// ---------------------------------------------------------- live workloads

struct LiveWorkload {
  const char* name;
  runtime::RuntimeMode mode;
  unsigned basestations;
  Duration period;
  double mean_load;
  unsigned batch;
  bool observed;  ///< trace + health + profile, analyze() per rep.
  std::size_t subframes_per_bs;  ///< per rep.
  /// The backlog grows by design, so completion - arrival measures the run
  /// length; latency is completion - start (the batch turnaround) instead.
  bool service_latency;
};

// Reps are short so that a run holds many of them and its fastest quarter
// skips the reps a noisy neighbour slows down. 2,000 subframes still leave
// 20 samples beyond the p99.
const LiveWorkload kLiveWorkloads[] = {
    {"rtopex_paced", runtime::RuntimeMode::kRtOpex, 1, milliseconds(1), 0.55,
     1, false, 2000, false},
    {"rtopex_paced_observed", runtime::RuntimeMode::kRtOpex, 1,
     milliseconds(1), 0.55, 1, true, 2000, false},
    {"global_batched_saturated", runtime::RuntimeMode::kGlobal, 2,
     microseconds(500), 0.75, 16, false, 1000, true},
};

struct Options {
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool smoke = false;
  bool traced = false;
  std::string whatif_baseline = RTOPEX_WHATIF_BASELINE;
};

runtime::RuntimeConfig live_config(const LiveWorkload& w,
                                   const Options& opt,
                                   std::vector<unsigned> mcs) {
  runtime::RuntimeConfig cfg;
  cfg.mode = w.mode;
  cfg.num_basestations = w.basestations;
  cfg.cores_per_bs = kWorkers / w.basestations;  // partitioned / RT-OPEX
  cfg.global_cores = kWorkers;
  cfg.subframes_per_bs = mcs.size();
  cfg.subframe_period = opt.smoke ? milliseconds(5) : w.period;
  cfg.deadline_budget = kDeadlineBudget;
  cfg.rtt_half = kRttHalf;
  cfg.enforce_deadlines = false;
  cfg.mcs_cycle = std::move(mcs);
  cfg.seed = opt.seed;
  cfg.throughput.batch = w.batch;
  if (w.observed) {
    cfg.trace.enabled = true;
    cfg.health.enabled = true;
    cfg.profile.enabled = true;
    // Every stage section and hosted chunk is one span; size the per-track
    // store so a rep never drops one.
    cfg.profile.max_samples_per_track = 8 * cfg.subframes_per_bs;
  }
  return cfg;
}

/// One rep of a live workload, reduced to what the metrics need.
struct LiveRep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t offered = 0;
  std::size_t processed = 0;
  std::size_t misses = 0;
  std::size_t errors = 0;
  std::size_t migrations = 0;
  std::size_t recoveries = 0;
  std::size_t batched = 0;
  std::vector<double> latency_us, queue_us, service_us, slack_us;
  double fft_us = 0.0, demod_us = 0.0, decode_us = 0.0;
  double drain_ms = 0.0;
  // Observability layer (observed workload only).
  std::size_t trace_events = 0, trace_drops = 0, profile_spans = 0,
              profile_drops = 0, alerts = 0;
  double analyze_ms = 0.0;
  bool analysis_incomplete = false;
};

LiveRep run_live_rep(const LiveWorkload& w, const runtime::RuntimeConfig& cfg,
                     SpanLog& spans) {
  LiveRep rep;
  std::unique_ptr<runtime::NodeRuntime> node;
  rep.setup_s = 1e-9 * static_cast<double>(spans.span(
                           "runtime.setup", -1, [&] {
                             node = std::make_unique<runtime::NodeRuntime>(cfg);
                           }));
  runtime::RuntimeReport report;
  const double cpu0 = process_cpu_s();
  rep.wall_s = 1e-9 * static_cast<double>(
                          spans.span("runtime.run", -1,
                                     [&] { report = node->run(); }));
  rep.cpu_s = process_cpu_s() - cpu0;

  const std::size_t n = cfg.subframes_per_bs;
  rep.offered = n * cfg.num_basestations;
  rep.migrations = report.migrations;
  rep.recoveries = report.recoveries;
  rep.batched = report.batched_subframes;

  // Exactly one record per offered (bs, index); every decoded subframe
  // passes CRC.
  std::vector<std::uint8_t> seen(rep.offered, 0);
  TimePoint last_completion = 0;
  std::vector<double> fft, demod, decode;
  for (const runtime::SubframeRecord& r : report.records) {
    if (r.bs >= cfg.num_basestations || r.index >= n) {
      ++rep.errors;
      continue;
    }
    if (seen[r.bs * n + r.index]++) ++rep.errors;  // duplicate
    if (r.deadline_missed) ++rep.misses;            // drops included
    if (r.lost || r.dropped) continue;
    if (!r.crc_ok) ++rep.errors;
    ++rep.processed;
    const double latency = to_us(r.completion - r.arrival);
    const double service = to_us(r.completion - r.start);
    rep.latency_us.push_back(w.service_latency ? service : latency);
    rep.queue_us.push_back(to_us(r.start - r.arrival));
    rep.service_us.push_back(service);
    rep.slack_us.push_back(
        to_us(r.radio_time + cfg.deadline_budget - r.completion));
    fft.push_back(to_us(r.timing.fft));
    demod.push_back(to_us(r.timing.demod));
    decode.push_back(to_us(r.timing.decode));
    last_completion = std::max(last_completion, r.completion);
  }
  rep.errors += static_cast<std::size_t>(
      std::count(seen.begin(), seen.end(), std::uint8_t{0}));  // missing
  rep.fft_us = mean(fft);
  rep.demod_us = mean(demod);
  rep.decode_us = mean(decode);
  const TimePoint last_arrival =
      static_cast<TimePoint>(n - 1) * cfg.subframe_period + cfg.rtt_half;
  rep.drain_ms = 1e-6 * static_cast<double>(last_completion - last_arrival);

  if (cfg.trace.enabled) {
    rep.trace_events = report.trace.events.size();
    rep.trace_drops = report.trace.total_drops();
    rep.profile_spans = report.profile.samples.size();
    rep.profile_drops = report.profile.drops;
    rep.alerts = report.alerts.size();
    obs::analysis::AnalyzerOptions aopts;
    aopts.budget = cfg.deadline_budget;
    aopts.nominal_transport = cfg.rtt_half;
    obs::analysis::AnalysisReport analysis;
    rep.analyze_ms = 1e-6 * static_cast<double>(spans.span(
                                "obs.analyze", -1, [&] {
                                  analysis = obs::analysis::analyze(
                                      report.trace, aopts);
                                }));
    // The postmortem must reconstruct every subframe the node recorded.
    rep.analysis_incomplete = analysis.subframes != rep.offered;
  }
  return rep;
}

/// Per-stage PHY costs of one subframe sequence, run serially through the
/// UplinkRxProcessor stage calls with one span per call.
struct Ledger {
  std::size_t subframes = 0;
  double subframe_us = 0.0, begin_us = 0.0, fft_us = 0.0, demod_us = 0.0,
         descramble_us = 0.0, decode_us = 0.0, finalize_us = 0.0;
  double decode_batch_us = 0.0, decode_batch16_us = 0.0;
  double code_blocks = 0.0, turbo_iterations = 0.0;
  std::size_t crc_failures = 0;

  double unattributed_us() const {
    return subframe_us - (begin_us + fft_us + demod_us + descramble_us +
                          decode_us + finalize_us);
  }
};

Ledger run_phy_ledger(const phy::UplinkConfig& ucfg,
                      const std::vector<unsigned>& mcs, std::uint64_t seed,
                      SpanLog& spans) {
  constexpr std::size_t kBatch = 16;
  const phy::UplinkRxProcessor rx(ucfg);
  const phy::UplinkTransmitter tx(ucfg);
  // One received waveform per distinct MCS, as the node pre-generates them.
  std::map<unsigned, std::vector<phy::IqVector>> samples;
  Rng rng(seed);
  channel::ChannelConfig ch;
  ch.num_rx_antennas = ucfg.num_antennas;
  for (const unsigned m : mcs) {
    if (samples.count(m)) continue;
    const phy::TxSubframe sf = tx.transmit(m, 0, rng.next());
    samples[m] = channel::pass_through_channel(sf.samples, ch, rng.next());
  }

  phy::DecodeWorkspace& ws = phy::UplinkRxProcessor::thread_workspace();
  std::vector<phy::UplinkRxJob> jobs;
  for (std::size_t i = 0; i < kBatch; ++i) jobs.push_back(rx.make_job());
  std::vector<phy::UplinkRxJob*> batch;
  phy::UplinkRxResult result;
  const auto all_blocks_ok = [](const phy::UplinkRxJob& job) {
    return std::all_of(job.cb_results.begin(), job.cb_results.end(),
                       [](const auto& cb) { return cb.crc_ok; });
  };

  Ledger l;
  std::int64_t t_sub = 0, t_begin = 0, t_fft = 0, t_demod = 0, t_desc = 0,
               t_dec = 0, t_fin = 0, t_batch = 0, t_batch16 = 0;
  std::size_t batch16_jobs = 0;
  for (std::size_t j = 0; j < mcs.size(); ++j) {
    const auto sf = static_cast<std::int64_t>(j);
    phy::UplinkRxJob& job = jobs[j % kBatch];
    t_sub += spans.span("phy.subframe", sf, [&] {
      t_begin += spans.span("phy.begin", sf, [&] {
        rx.begin(job, samples.at(mcs[j]), mcs[j], 0);
      });
      t_fft += spans.span("phy.fft", sf, [&] {
        for (std::size_t s = 0; s < rx.fft_subtask_count(); ++s)
          rx.run_fft_subtask(job, s, ws);
      });
      t_demod += spans.span("phy.demod", sf, [&] {
        rx.demod_prepare(job);
        for (std::size_t s = 0; s < rx.demod_subtask_count(); ++s)
          rx.run_demod_subtask(job, s);
      });
      t_desc += spans.span("phy.descramble", sf,
                           [&] { rx.decode_prepare(job, ws); });
      t_dec += spans.span("phy.decode", sf, [&] {
        for (std::size_t s = 0; s < rx.decode_subtask_count(job); ++s)
          rx.run_decode_subtask(job, s, ws);
      });
      t_fin += spans.span("phy.finalize", sf,
                          [&] { rx.finalize_into(job, ws, result); });
    });
    if (!result.crc_ok) ++l.crc_failures;
    l.code_blocks += static_cast<double>(job.cb_results.size());
    for (const auto& cb : job.cb_results) l.turbo_iterations += cb.iterations;

    // The same (descrambled) job again through the SoA batch decoder the
    // blocking workers run, then every 16 jobs as one cross-subframe batch.
    t_batch += spans.span("phy.decode_batch", sf,
                          [&] { rx.run_decode_batch(job, ws); });
    if (!all_blocks_ok(job)) ++l.crc_failures;
    if ((j + 1) % kBatch == 0) {
      batch.clear();
      for (auto& b : jobs) batch.push_back(&b);
      t_batch16 += spans.span("phy.decode_batch16", sf,
                              [&] { rx.run_decode_batch(batch, ws); });
      batch16_jobs += kBatch;
      for (const auto& b : jobs)
        if (!all_blocks_ok(b)) ++l.crc_failures;
    }
  }
  l.subframes = mcs.size();
  const double n = static_cast<double>(l.subframes);
  const auto per_subframe_us = [n](std::int64_t ns) {
    return 1e-3 * static_cast<double>(ns) / n;
  };
  l.subframe_us = per_subframe_us(t_sub);
  l.begin_us = per_subframe_us(t_begin);
  l.fft_us = per_subframe_us(t_fft);
  l.demod_us = per_subframe_us(t_demod);
  l.descramble_us = per_subframe_us(t_desc);
  l.decode_us = per_subframe_us(t_dec);
  l.finalize_us = per_subframe_us(t_fin);
  l.decode_batch_us = per_subframe_us(t_batch);
  l.decode_batch16_us =
      batch16_jobs ? 1e-3 * static_cast<double>(t_batch16) /
                         static_cast<double>(batch16_jobs)
                   : 0.0;
  l.code_blocks /= n;
  l.turbo_iterations /= n;
  return l;
}

/// Repeats `rep` until the next one would overrun `seconds` of wall time,
/// but at least `min_reps` times.
template <class F>
void repeat_for(double seconds, unsigned min_reps, F&& rep) {
  const std::int64_t t0 = monotonic_ns();
  double longest = 0.0;
  for (unsigned r = 0;; ++r) {
    const double before = seconds_since(t0);
    if (r >= min_reps && before + longest > seconds) break;
    rep();
    longest = std::max(longest, seconds_since(t0) - before);
  }
}

Result run_live(const LiveWorkload& w, const Options& opt, SpanLog& spans) {
  // One long trace per seed; rep r runs its r-th segment, so a run's
  // reps cover many segments instead of repeating one seed's slice.
  constexpr std::size_t kSegments = 32;
  const std::size_t n = opt.smoke ? 300 : w.subframes_per_bs;
  const std::vector<unsigned> trace_mcs =
      mcs_sequence(opt.seed, w.mean_load, n * kSegments);

  std::vector<LiveRep> reps;
  repeat_for(opt.seconds, opt.smoke ? 1 : 5, [&] {
    const auto first = trace_mcs.begin() + static_cast<std::ptrdiff_t>(
                                               (reps.size() % kSegments) * n);
    const runtime::RuntimeConfig cfg =
        live_config(w, opt, std::vector<unsigned>(first, first + n));
    spans.span("workload.rep", -1,
               [&] { reps.push_back(run_live_rep(w, cfg, spans)); });
  });

  Result res;
  const auto over_reps = [&reps](auto field) {
    std::vector<double> v;
    for (const LiveRep& r : reps) v.push_back(field(r));
    return v;
  };
  const auto med = [&](auto field) { return median(over_reps(field)); };
  std::vector<double> pooled_latency;
  bool analysis_incomplete = false;
  for (const LiveRep& r : reps) {
    res.attempted += r.offered;
    res.failed += r.errors;
    pooled_latency.insert(pooled_latency.end(), r.latency_us.begin(),
                          r.latency_us.end());
    analysis_incomplete = analysis_incomplete || r.analysis_incomplete;
  }
  if (analysis_incomplete)
    res.check_failures.push_back(
        "analyze() did not reconstruct every offered subframe");

  res.end_to_end = {
      {"setup_s", med([](const LiveRep& r) { return r.setup_s; }), "s"},
      {"subframes_per_s", fastest_quarter_rate(over_reps([](const LiveRep& r) {
         return r.processed / r.wall_s;
       })),
       "1/s"},
      {"latency_p50_us", fastest_quarter_time(over_reps([](const LiveRep& r) {
         return percentile(r.latency_us, 0.5);
       })),
       "us"},
      {"latency_p99_us", fastest_quarter_time(over_reps([](const LiveRep& r) {
         return percentile(r.latency_us, 0.99);
       })),
       "us"},
  };

  const double runtime_decode_us =
      med([](const LiveRep& r) { return r.decode_us; });
  res.per_layer = {
      {"miss_rate",
       med([](const LiveRep& r) { return ratio(r.misses, r.offered); })},
      {"cpu_us_per_subframe",
       fastest_quarter_time(over_reps([](const LiveRep& r) {
         return 1e6 * r.cpu_s / r.offered;
       }))},
      {"runtime.queue_wait_p50_us",
       med([](const LiveRep& r) { return percentile(r.queue_us, 0.5); })},
      {"runtime.queue_wait_p99_us",
       med([](const LiveRep& r) { return percentile(r.queue_us, 0.99); })},
      {"runtime.service_p50_us",
       med([](const LiveRep& r) { return percentile(r.service_us, 0.5); })},
      {"runtime.fft_us", med([](const LiveRep& r) { return r.fft_us; })},
      {"runtime.demod_us", med([](const LiveRep& r) { return r.demod_us; })},
      {"runtime.decode_us", runtime_decode_us},
      {"runtime.latency_p999_us", percentile(pooled_latency, 0.999)},
      {"runtime.slack_p1_us",
       med([](const LiveRep& r) { return percentile(r.slack_us, 0.01); })},
      {"runtime.migrations_per_subframe",
       med([](const LiveRep& r) { return ratio(r.migrations, r.offered); })},
      {"runtime.recovery_ratio",
       med([](const LiveRep& r) { return ratio(r.recoveries, r.migrations); })},
      {"runtime.batch_fill",
       med([](const LiveRep& r) { return ratio(r.batched, r.processed); })},
      {"runtime.drain_ms", med([](const LiveRep& r) { return r.drain_ms; })},
      {"obs.trace_events_per_subframe",
       med([](const LiveRep& r) { return ratio(r.trace_events, r.offered); })},
      {"obs.trace_drops",
       med([](const LiveRep& r) { return double(r.trace_drops); })},
      {"obs.profile_spans",
       med([](const LiveRep& r) { return double(r.profile_spans); })},
      {"obs.profile_drops",
       med([](const LiveRep& r) { return double(r.profile_drops); })},
      {"obs.alerts", med([](const LiveRep& r) { return double(r.alerts); })},
      {"obs.analyze_ms", med([](const LiveRep& r) { return r.analyze_ms; })},
  };

  if (opt.traced) {
    // The PHY ledger: the workload's first 2,000 MCS values, serially, on
    // the node's default uplink configuration.
    const std::size_t ledger_n = opt.smoke ? n : 2000;
    const Ledger l = run_phy_ledger(
        phy::UplinkConfig{},
        std::vector<unsigned>(trace_mcs.begin(),
                              trace_mcs.begin() +
                                  static_cast<std::ptrdiff_t>(ledger_n)),
        opt.seed, spans);
    res.failed += l.crc_failures;
    res.attempted += l.subframes;
    if (l.unattributed_us() > 0.05 * l.subframe_us)
      res.check_failures.push_back("PHY ledger does not close: unattributed " +
                                   std::to_string(l.unattributed_us()) +
                                   " us of " + std::to_string(l.subframe_us));
    res.per_layer.insert({
        {"phy.subframe_us", l.subframe_us},
        {"phy.begin_us", l.begin_us},
        {"phy.fft_us", l.fft_us},
        {"phy.demod_us", l.demod_us},
        {"phy.descramble_us", l.descramble_us},
        {"phy.decode_us", l.decode_us},
        {"phy.finalize_us", l.finalize_us},
        {"phy.unattributed_us", l.unattributed_us()},
        {"phy.decode_batch_us", l.decode_batch_us},
        {"phy.decode_batch16_us", l.decode_batch16_us},
        {"phy.code_blocks", l.code_blocks},
        {"phy.turbo_iterations", l.turbo_iterations},
        {"runtime.decode_speedup", ratio(l.decode_us, runtime_decode_us)},
    });
  }
  return res;
}

// ------------------------------------------------------------------- sim

struct SimScheduler {
  core::SchedulerKind kind;
  const char* label;
};

const SimScheduler kSimSchedulers[] = {
    {core::SchedulerKind::kPartitioned, "partitioned"},
    {core::SchedulerKind::kGlobal, "global-8"},
    {core::SchedulerKind::kRtOpex, "rt-opex"},
};

/// One (load, scheduler, adaptive) point of the grid.
struct SimRow {
  double load = 0.0;
  const char* scheduler = "";
  bool adaptive = false;
  std::size_t subframes = 0;
  std::size_t misses = 0;
};

/// Reads the per-row miss rates of the committed what-if baseline (the
/// one-line JSON bench/whatif_adaptive writes) and returns one message per
/// partitioned / rt-opex row whose miss count differs from `rows`.
std::vector<std::string> check_whatif_baseline(
    const std::string& path, const std::vector<SimRow>& rows) {
  std::ifstream in(path);
  if (!in) return {"cannot read what-if baseline " + path};
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto field = [](const std::string& obj, const std::string& key) {
    const std::size_t at = obj.find("\"" + key + "\":");
    if (at == std::string::npos)
      throw std::runtime_error("what-if baseline row lacks " + key);
    return obj.substr(at + key.size() + 3);
  };
  std::vector<std::string> failures;
  std::size_t baseline_rows = 0, matched = 0;
  const std::size_t rows_at = text.find("\"rows\":[");
  const std::size_t rows_end = text.find(']', rows_at);
  for (std::size_t pos = text.find('{', rows_at);
       rows_at != std::string::npos && pos < rows_end;
       pos = text.find('{', pos + 1)) {
    ++baseline_rows;
    const std::string obj = text.substr(pos, text.find('}', pos) - pos);
    const double load = std::strtod(field(obj, "mean_load").c_str(), nullptr);
    const std::string sched = field(obj, "scheduler");
    for (const SimRow& r : rows) {
      if (std::abs(r.load - load) > 1e-9 ||
          sched.compare(1, std::string(r.scheduler).size() + 1,
                        std::string(r.scheduler) + "\"") != 0)
        continue;
      const double rate = std::strtod(
          field(obj, r.adaptive ? "miss_rate_adaptive" : "miss_rate_static")
              .c_str(),
          nullptr);
      const auto expected = static_cast<std::size_t>(
          std::llround(rate * static_cast<double>(r.subframes)));
      ++matched;
      if (expected != r.misses)
        failures.push_back("what-if baseline mismatch at load " +
                           std::to_string(load) + " " + r.scheduler +
                           (r.adaptive ? " adaptive" : " static") + ": " +
                           std::to_string(r.misses) + " misses, baseline " +
                           std::to_string(expected));
    }
  }
  // Each baseline row holds a static and an adaptive miss rate.
  if (baseline_rows == 0 || matched != 2 * baseline_rows)
    failures.push_back("the sweep does not cover every row of " + path);
  return failures;
}

Result run_sim(const Options& opt, SpanLog& spans) {
  // The BENCH_whatif.json grid: 4 BS x 10,000 subframes, RTT/2 500 us,
  // mean load 0.4 .. 1.0 (accumulated exactly as bench/whatif_adaptive
  // does, so seed 1 reproduces its rows bit for bit).
  core::ExperimentConfig cfg;
  cfg.workload.num_basestations = 4;
  cfg.workload.subframes_per_bs = 10000;
  cfg.workload.seed = opt.seed;
  cfg.rtt_half = kRttHalf;
  cfg.global.num_cores = 8;
  std::vector<double> loads;
  for (double mean = 0.40; mean <= 1.001; mean += 0.10) loads.push_back(mean);

  // Set-up: generate the grid's workloads (five times, for a median).
  std::vector<std::vector<sim::SubframeWork>> work;
  std::vector<double> setup_s, make_ms;
  for (int round = 0; round < 5; ++round) {
    const std::int64_t t0 = monotonic_ns();
    std::int64_t gen_ns = 0;
    work.clear();
    for (const double load : loads) {
      cfg.workload.mean_load_override = load;
      gen_ns += spans.span("sim.make_workload", -1, [&] {
        work.push_back(core::make_workload(cfg));
      });
    }
    setup_s.push_back(seconds_since(t0));
    make_ms.push_back(1e-6 * static_cast<double>(gen_ns));
  }

  std::vector<SimRow> first;  // rep 0's rows; later reps must match them
  std::vector<double> rep_rate, rep_cpu_us;
  std::map<std::string, std::vector<double>> sched_rate;
  std::vector<double> adaptive_cost;
  obs::Histogram latency;
  std::size_t est_samples = 0, migrated = 0, rtopex_subframes = 0;
  double err_static = 0.0, err_adaptive = 0.0;
  Result res;
  unsigned rep_index = 0;
  repeat_for(opt.seconds, 2, [&] {
    std::vector<SimRow> rows;
    std::map<std::string, std::pair<std::int64_t, std::size_t>> per_sched;
    std::int64_t mode_ns[2] = {0, 0};
    std::size_t subframes = 0;
    const double cpu0 = process_cpu_s();
    const std::int64_t rep_ns = spans.span("workload.rep", -1, [&] {
      for (std::size_t li = 0; li < loads.size(); ++li) {
        for (const SimScheduler& s : kSimSchedulers) {
          for (const bool adaptive : {false, true}) {
            cfg.scheduler = s.kind;
            cfg.adaptive.enabled = adaptive;
            core::ExperimentResult r;
            const std::int64_t ns = spans.span("sched.run", -1, [&] {
              r = core::run_scheduler(cfg, work[li]);
            });
            const sim::SchedulerMetrics& m = r.metrics;
            per_sched[s.label].first += ns;
            per_sched[s.label].second += m.total_subframes;
            mode_ns[adaptive] += ns;
            subframes += m.total_subframes;
            rows.push_back({loads[li], s.label, adaptive, m.total_subframes,
                            m.deadline_misses});
            // Conservation: every offered subframe is classified, and every
            // miss is a drop or a termination.
            if (m.total_subframes != work[li].size() ||
                m.deadline_misses != m.dropped + m.terminated)
              ++res.failed;
            if (rep_index > 0) continue;
            latency.merge(m.processing_us_hist);
            if (adaptive) {
              est_samples += m.decode_est_samples;
              err_static += m.decode_est_static_abs_err_us;
              err_adaptive += m.decode_est_used_abs_err_us;
            }
            if (s.kind == core::SchedulerKind::kRtOpex) {
              migrated += m.fft_subtasks_migrated + m.decode_subtasks_migrated;
              rtopex_subframes += m.total_subframes;
            }
          }
        }
      }
    });
    rep_cpu_us.push_back(1e6 * (process_cpu_s() - cpu0) /
                         static_cast<double>(subframes));
    rep_rate.push_back(static_cast<double>(subframes) /
                       (1e-9 * static_cast<double>(rep_ns)));
    for (const auto& [label, t] : per_sched)
      sched_rate[label].push_back(static_cast<double>(t.second) /
                                  (1e-9 * static_cast<double>(t.first)));
    adaptive_cost.push_back(ratio(static_cast<double>(mode_ns[1]),
                                  static_cast<double>(mode_ns[0])));
    res.attempted += subframes;
    if (rep_index == 0) {
      first = rows;
    } else {
      for (std::size_t i = 0; i < rows.size(); ++i)
        if (rows[i].misses != first[i].misses) ++res.failed;
    }
    ++rep_index;
  });

  if (opt.seed == 1)
    for (std::string& f : check_whatif_baseline(opt.whatif_baseline, first))
      res.check_failures.push_back(std::move(f));

  res.end_to_end = {
      {"setup_s", median(setup_s), "s"},
      {"subframes_per_s", fastest_quarter_rate(rep_rate), "1/s"},
      {"latency_p50_us", latency.p50(), "us"},
      {"latency_p99_us", latency.p99(), "us"},
  };

  std::size_t total = 0, total_misses = 0;
  for (const SimRow& r : first) {
    total += r.subframes;
    total_misses += r.misses;
  }
  res.per_layer["miss_rate"] = ratio(total_misses, total);
  res.per_layer["cpu_us_per_subframe"] = fastest_quarter_time(rep_cpu_us);
  for (const SimScheduler& s : kSimSchedulers)
    res.per_layer[std::string("sched.subframes_per_s.") + s.label] =
        fastest_quarter_rate(sched_rate[s.label]);
  res.per_layer["sched.adaptive_cost_ratio"] = median(adaptive_cost);
  for (const SimScheduler& s : kSimSchedulers) {
    for (const bool adaptive : {false, true}) {
      std::size_t n = 0, misses = 0;
      for (const SimRow& r : first) {
        if (std::string(r.scheduler) != s.label || r.adaptive != adaptive)
          continue;
        n += r.subframes;
        misses += r.misses;
      }
      res.per_layer[std::string("sched.miss_rate.") + s.label +
                    (adaptive ? ".adaptive" : ".static")] = ratio(misses, n);
    }
  }
  res.per_layer["sched.migrations_per_subframe"] =
      ratio(migrated, rtopex_subframes);
  res.per_layer["model.decode_est_err_us.static"] =
      ratio(err_static, est_samples);
  res.per_layer["model.decode_est_err_us.adaptive"] =
      ratio(err_adaptive, est_samples);
  res.per_layer["sim.make_workload_ms"] = median(make_ms);
  return res;
}

// ---------------------------------------------------------------- output

/// Every per-layer metric any workload reports, with its unit, in output
/// order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"miss_rate", "fraction"},
        {"cpu_us_per_subframe", "us"},
        {"phy.subframe_us", "us"},
        {"phy.begin_us", "us"},
        {"phy.fft_us", "us"},
        {"phy.demod_us", "us"},
        {"phy.descramble_us", "us"},
        {"phy.decode_us", "us"},
        {"phy.finalize_us", "us"},
        {"phy.unattributed_us", "us"},
        {"phy.decode_batch_us", "us"},
        {"phy.decode_batch16_us", "us"},
        {"phy.code_blocks", "count"},
        {"phy.turbo_iterations", "count"},
        {"runtime.queue_wait_p50_us", "us"},
        {"runtime.queue_wait_p99_us", "us"},
        {"runtime.service_p50_us", "us"},
        {"runtime.fft_us", "us"},
        {"runtime.demod_us", "us"},
        {"runtime.decode_us", "us"},
        {"runtime.latency_p999_us", "us"},
        {"runtime.slack_p1_us", "us"},
        {"runtime.migrations_per_subframe", "count"},
        {"runtime.recovery_ratio", "fraction"},
        {"runtime.batch_fill", "fraction"},
        {"runtime.drain_ms", "ms"},
        {"runtime.decode_speedup", "ratio"},
        {"obs.trace_events_per_subframe", "count"},
        {"obs.trace_drops", "count"},
        {"obs.profile_spans", "count"},
        {"obs.profile_drops", "count"},
        {"obs.alerts", "count"},
        {"obs.analyze_ms", "ms"},
    };
    for (const SimScheduler& s : kSimSchedulers)
      v.push_back({std::string("sched.subframes_per_s.") + s.label, "1/s"});
    v.push_back({"sched.adaptive_cost_ratio", "ratio"});
    for (const SimScheduler& s : kSimSchedulers) {
      v.push_back({std::string("sched.miss_rate.") + s.label + ".static",
                   "fraction"});
      v.push_back({std::string("sched.miss_rate.") + s.label + ".adaptive",
                   "fraction"});
    }
    v.push_back({"sched.migrations_per_subframe", "count"});
    v.push_back({"model.decode_est_err_us.static", "us"});
    v.push_back({"model.decode_est_err_us.adaptive", "us"});
    v.push_back({"sim.make_workload_ms", "ms"});
    return v;
  }();
  return names;
}

/// A workload's per-layer metrics in output order. With `all`, the layers it
/// does not exercise read 0, so every traced run carries the same names.
std::vector<Metric> per_layer_report(const Result& r, bool all) {
  std::vector<Metric> out;
  std::size_t listed = 0;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = r.per_layer.find(name);
    if (it != r.per_layer.end()) ++listed;
    if (it != r.per_layer.end() || all)
      out.push_back({name, it != r.per_layer.end() ? it->second : 0.0, unit});
  }
  if (listed != r.per_layer.size())
    throw std::logic_error("a per-layer metric is missing from the list");
  return out;
}

std::string json_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Run {
  std::string workload;
  Result result;
};

/// The result object: one workload's metrics under their own names, or,
/// for several workloads, every metric prefixed with "<workload>.".
std::string result_json(const std::vector<Run>& runs, bool traced) {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const Run& run : runs) {
    const Result& r = run.result;
    correct = correct && r.failed == 0 && r.check_failures.empty();
    attempted += r.attempted;
    failed += r.failed;
    const std::string prefix = runs.size() > 1 ? run.workload + "." : "";
    for (const Metric& m :
         traced ? per_layer_report(r, true) : r.end_to_end) {
      if (!std::isfinite(m.value)) correct = false;
      if (!metrics.empty()) metrics += ",";
      metrics += "\"" + prefix + m.name + "\":{\"value\":";
      metrics += json_number(std::isfinite(m.value) ? m.value : 0.0);
      metrics += ",\"unit\":\"" + m.unit + "\"}";
    }
  }
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{" + metrics + "}}";
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=<name>|all --seed=N [--seconds=S] "
               "[--smoke] [--json=PATH] [--trace=PATH] "
               "[--whatif-baseline=PATH]\n"
               "workloads: rtopex_paced rtopex_paced_observed "
               "global_batched_saturated sim_load_sweep\n",
               argv0);
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  std::string workload, json_path, trace_path;
  bool seconds_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* flag) -> const char* {
      const std::string prefix = std::string(flag) + "=";
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size() : nullptr;
    };
    if (const char* v = value("--workload")) {
      workload = v;
    } else if (const char* v = value("--seed")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      opt.seconds = std::atof(v);
      seconds_set = true;
    } else if (const char* v = value("--json")) {
      json_path = v;
    } else if (const char* v = value("--trace")) {
      trace_path = v;
    } else if (const char* v = value("--whatif-baseline")) {
      opt.whatif_baseline = v;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.smoke && !seconds_set) opt.seconds = 0.0;
  opt.traced = !trace_path.empty();

  std::vector<std::string> selected;
  for (const LiveWorkload& w : kLiveWorkloads)
    if (workload == "all" || workload == w.name) selected.push_back(w.name);
  if (workload == "all" || workload == "sim_load_sweep")
    selected.push_back("sim_load_sweep");
  if (selected.empty()) return usage(argv[0]);

  SpanLog spans(opt.traced);
  std::vector<Run> runs;
  for (const std::string& name : selected) {
    std::printf("== %s (seed %llu%s)\n", name.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.traced ? ", traced" : "");
    Result r;
    if (name == "sim_load_sweep") {
      r = run_sim(opt, spans);
    } else {
      for (const LiveWorkload& w : kLiveWorkloads)
        if (name == w.name) r = run_live(w, opt, spans);
    }
    print_metrics(r.end_to_end);
    if (opt.traced) print_metrics(per_layer_report(r, false));
    std::printf("attempted %llu\nfailed %llu\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (const std::string& f : r.check_failures)
      std::fprintf(stderr, "CHECK FAILED (%s): %s\n", name.c_str(), f.c_str());
    runs.push_back({name, std::move(r)});
  }

  if (opt.traced) {
    spans.write_chrome_json(trace_path);
    std::printf("wrote %zu spans to %s\n", spans.size(), trace_path.c_str());
  }
  const std::string json = result_json(runs, opt.traced);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json << "\n";
    if (!out) throw std::runtime_error("cannot write " + json_path);
  }
  std::printf("%s\n", json.c_str());
  return json.find("\"correct\":true") == std::string::npos ? 1 : 0;
}

}  // namespace
}  // namespace rtopex::benchmark

int main(int argc, char** argv) {
  try {
    return rtopex::benchmark::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtopex_bench: %s\n", e.what());
    return 2;
  }
}
