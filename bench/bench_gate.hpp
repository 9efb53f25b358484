// Shared scaffolding for the google-benchmark binaries with a custom
// main(): capture per-benchmark timings, write them as a bench/baselines-
// style BENCH_<name>.json, and gate against a committed baseline (CI's
// perf-smoke job fails the build on regressions). Used by micro_phy,
// micro_sched and obs_overhead.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace rtopex::bench {

struct CapturedRun {
  std::string name;
  double real_ns = 0.0;
  double cpu_ns = 0.0;
};

/// Console reporter that also keeps per-iteration-group results so main()
/// can emit the BENCH_<name>.json artifact and run the baseline gate.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double iters = static_cast<double>(run.iterations);
      captured.push_back({run.benchmark_name(),
                          run.real_accumulated_time / iters * 1e9,
                          run.cpu_accumulated_time / iters * 1e9});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<CapturedRun> captured;
};

/// Minimal extractor for the baseline JSON these binaries themselves write
/// (objects with "name"/"real_ns"/"cpu_ns" fields).
inline std::map<std::string, CapturedRun> read_baseline(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open baseline: " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::map<std::string, CapturedRun> entries;
  const std::string name_key = "\"name\":\"";
  const auto number_after = [&](std::size_t from, const std::string& key) {
    const std::size_t at = text.find(key, from);
    if (at == std::string::npos) return -1.0;
    return std::stod(text.substr(at + key.size()));
  };
  for (std::size_t pos = text.find(name_key); pos != std::string::npos;
       pos = text.find(name_key, pos + 1)) {
    const std::size_t begin = pos + name_key.size();
    const std::size_t end = text.find('"', begin);
    if (end == std::string::npos) break;
    CapturedRun entry;
    entry.name = text.substr(begin, end - begin);
    entry.real_ns = number_after(end, "\"real_ns\":");
    entry.cpu_ns = number_after(end, "\"cpu_ns\":");
    if (entry.cpu_ns > 0.0) entries[entry.name] = entry;
  }
  return entries;
}

/// BENCH_<bench_name>.json with the same shape the table benches emit:
/// root { bench, config{simd}, results[{name, real_ns, cpu_ns}] }.
inline void write_results_json(const std::string& path,
                               const std::string& bench_name,
                               const std::vector<CapturedRun>& runs) {
  JsonValue root = JsonValue::object();
  root.set("bench", bench_name);
  JsonValue config = JsonValue::object();
#ifdef RTOPEX_SIMD
  config.set("simd", JsonValue::boolean(true));
#else
  config.set("simd", JsonValue::boolean(false));
#endif
  root.set("config", std::move(config));
  JsonValue results = JsonValue::array();
  for (const auto& run : runs) {
    JsonValue entry = JsonValue::object();
    entry.set("name", run.name);
    entry.set("real_ns", run.real_ns);
    entry.set("cpu_ns", run.cpu_ns);
    results.push(std::move(entry));
  }
  root.set("results", std::move(results));
  write_bench_json(path, root);
}

/// Returns the number of gate failures: benchmarks whose cpu time regressed
/// beyond the threshold, plus baseline entries missing from the run (a
/// renamed or deleted benchmark must not pass silently). A benchmark missing
/// only from the baseline is reported as new, not failed (the baseline
/// predates newly added benchmarks).
inline int gate_against_baseline(
    const std::vector<CapturedRun>& runs,
    const std::map<std::string, CapturedRun>& baseline, double threshold_pct) {
  int failures = 0;
  std::printf("\nPerf gate (threshold +%.0f%% cpu time vs baseline):\n",
              threshold_pct);
  std::printf("%-28s %14s %14s %9s\n", "benchmark", "baseline_ns", "cpu_ns",
              "ratio");
  for (const auto& run : runs) {
    const auto it = baseline.find(run.name);
    if (it == baseline.end()) {
      std::printf("%-28s %14s %14.0f %9s\n", run.name.c_str(), "-",
                  run.cpu_ns, "new");
      continue;
    }
    const double ratio = run.cpu_ns / it->second.cpu_ns;
    const bool bad = ratio > 1.0 + threshold_pct / 100.0;
    std::printf("%-28s %14.0f %14.0f %8.2fx%s\n", run.name.c_str(),
                it->second.cpu_ns, run.cpu_ns, ratio,
                bad ? "  REGRESSION" : "");
    if (bad) ++failures;
  }
  for (const auto& [name, entry] : baseline) {
    const bool ran = std::any_of(runs.begin(), runs.end(), [&](const auto& r) {
      return r.name == name;
    });
    if (ran) continue;
    std::printf("%-28s %14.0f %14s %9s\n", name.c_str(), entry.cpu_ns, "-",
                "MISSING");
    ++failures;
  }
  return failures;
}

/// The whole custom main() the gate-capable benchmark binaries share:
/// strips --json=/--baseline=/--threshold= (and an optional extra flag the
/// caller handles via `extra`), hands the rest to google-benchmark, then
/// writes the JSON artifact and runs the gate. Returns the process exit
/// code.
struct GateMainOptions {
  std::string bench_name;
  double default_threshold_pct = 25.0;
  /// Called with the value of --<extra_flag>=VALUE after the benchmarks
  /// ran (empty string means the flag was absent).
  std::string extra_flag;
  std::function<void(const std::string&)> extra_handler;
};

inline int gate_main(int argc, char** argv, const GateMainOptions& opts) {
  std::string json_path;
  std::string baseline_path;
  std::string extra_value;
  double threshold_pct = opts.default_threshold_pct;
  const std::string extra_prefix =
      opts.extra_flag.empty() ? "" : "--" + opts.extra_flag + "=";
  std::vector<char*> passthrough{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold_pct = std::stod(arg.substr(12));
    } else if (!extra_prefix.empty() && arg.rfind(extra_prefix, 0) == 0) {
      extra_value = arg.substr(extra_prefix.size());
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (opts.extra_handler && !extra_value.empty())
    opts.extra_handler(extra_value);

  if (!json_path.empty()) {
    write_results_json(json_path, opts.bench_name, reporter.captured);
    std::printf("wrote %s (%zu benchmarks)\n", json_path.c_str(),
                reporter.captured.size());
  }
  if (!baseline_path.empty()) {
    const auto baseline = read_baseline(baseline_path);
    const int failures =
        gate_against_baseline(reporter.captured, baseline, threshold_pct);
    if (failures > 0) {
      std::fprintf(stderr,
                   "perf gate: %d benchmark(s) regressed beyond +%.0f%% or "
                   "missing from the run\n",
                   failures, threshold_pct);
      return 1;
    }
    std::printf("perf gate: ok\n");
  }
  return 0;
}

}  // namespace rtopex::bench
