// Trace-file replay: measured load traces drive the workload instead of the
// synthetic generator.
#include <gtest/gtest.h>

#include <cstdio>

#include "model/timing_model.hpp"
#include "sim/workload.hpp"
#include "trace/load_trace.hpp"
#include "transport/transport.hpp"
#include "support/temp_path.hpp"

namespace rtopex::sim {
namespace {

class TraceReplayTest : public ::testing::Test {
 protected:
  // One file per test case: cases may run in parallel processes.
  std::string path_;
  void SetUp() override { path_ = test::temp_path_for_this_test(".csv"); }
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceReplayTest, ReplayedLoadsDriveMcsExactly) {
  // Two basestations with hand-crafted loads.
  const std::vector<trace::LoadTrace> traces = {
      trace::LoadTrace({0.0, 0.5, 1.0, 0.25}),
      trace::LoadTrace({1.0, 1.0, 0.0, 0.0}),
  };
  trace::write_traces_csv(path_, traces);

  WorkloadConfig cfg;
  cfg.num_basestations = 2;
  cfg.subframes_per_bs = 8;  // exercises cycling past the 4-entry trace
  cfg.trace_csv = path_;
  const transport::FixedTransport transport(microseconds(500));
  const WorkloadGenerator gen(cfg, transport, model::paper_gpp_model());
  const auto work = gen.generate();
  ASSERT_EQ(work.size(), 16u);
  for (const auto& w : work) {
    const double load = traces[w.bs].load(w.index);
    EXPECT_EQ(w.mcs, trace::mcs_from_load(load))
        << "bs=" << w.bs << " idx=" << w.index;
  }
}

TEST_F(TraceReplayTest, TooFewTraceColumnsRejected) {
  trace::write_traces_csv(path_, {trace::LoadTrace({0.5, 0.5})});
  WorkloadConfig cfg;
  cfg.num_basestations = 2;
  cfg.subframes_per_bs = 4;
  cfg.trace_csv = path_;
  const transport::FixedTransport transport(microseconds(500));
  const WorkloadGenerator gen(cfg, transport, model::paper_gpp_model());
  EXPECT_THROW(gen.generate(), std::invalid_argument);
}

TEST_F(TraceReplayTest, FixedMcsIgnoresTraceFile) {
  WorkloadConfig cfg;
  cfg.num_basestations = 2;
  cfg.subframes_per_bs = 4;
  cfg.trace_csv = "/nonexistent.csv";  // must not even be opened
  cfg.fixed_mcs = 7;
  const transport::FixedTransport transport(microseconds(500));
  const WorkloadGenerator gen(cfg, transport, model::paper_gpp_model());
  for (const auto& w : gen.generate()) EXPECT_EQ(w.mcs, 7u);
}

}  // namespace
}  // namespace rtopex::sim
