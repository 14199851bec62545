// End-to-end trace smoke test: run a tiny instrumented distributed training
// job, export trace.json, and verify the file is valid Chrome trace_event
// JSON containing the spans the paper's time-breakdown argument needs
// (forward, backward, allreduce) in per-rank lanes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/proxy.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "optim/lars.hpp"
#include "optim/schedule.hpp"
#include "train/elastic.hpp"
#include "train/fault_tolerant.hpp"
#include "train/trainer.hpp"

namespace minsgd {
namespace {

std::string read_all(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

#ifndef MINSGD_TRACE_OFF
// Every synchronous driver runs the same replica step, so each must leave
// the same trace.
class TraceSmokeDriver : public ::testing::TestWithParam<std::string> {};

TEST_P(TraceSmokeDriver, InstrumentedTrainingProducesLoadableTrace) {
  const auto proxy = core::micro_proxy();
  data::SyntheticImageNet dataset(proxy.dataset);
  constexpr int kWorld = 2;

  train::TrainOptions topt;
  topt.global_batch = proxy.base_batch * kWorld;
  topt.epochs = 1;
  topt.eval_every = 1;
  topt.init_seed = 3;
  const optim::ConstantLr schedule(proxy.base_lr);
  const auto opt_factory = [&] {
    return std::unique_ptr<optim::Optimizer>(
        new optim::Lars({.trust_coeff = proxy.lars_trust}));
  };
  const auto model = proxy.alexnet_factory();

  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  bool diverged = true;
  std::int64_t iterations = 0;
  if (GetParam() == "sync") {
    const auto r = train::train_sync_data_parallel(
        model, opt_factory, schedule, dataset, topt, kWorld,
        comm::AllreduceAlgo::kRing);
    diverged = r.result.diverged;
    iterations = r.iterations;
  } else if (GetParam() == "fault_tolerant") {
    train::FaultTolerantOptions fo;
    fo.train = topt;
    fo.checkpoint_path = ::testing::TempDir() + "/smoke_trace.ckpt";
    const auto r = train::train_sync_fault_tolerant(
        model, opt_factory, schedule, dataset, fo, kWorld);
    diverged = r.result.diverged;
    iterations = r.iterations;
  } else {
    train::ElasticOptions eo;
    eo.train = topt;
    eo.local_batch = proxy.base_batch;
    eo.initial_world = kWorld;
    eo.max_world = kWorld;
    const auto r = train::train_sync_elastic(model, opt_factory, schedule,
                                             dataset, eo);
    diverged = r.result.diverged;
    iterations = r.iterations;
  }
  obs::tracer().set_enabled(false);
  ASSERT_FALSE(diverged);
  ASSERT_GT(iterations, 0);
  ASSERT_GT(obs::tracer().span_count(), 0u);

  const std::string path = ::testing::TempDir() + "/smoke_trace.json";
  obs::tracer().write_chrome_trace(path);
  const auto doc = obs::json::parse(read_all(path));  // throws if malformed
  std::remove(path.c_str());

  bool saw_forward = false, saw_backward = false, saw_allreduce = false;
  bool saw_phase = false;
  std::vector<bool> rank_lane(kWorld, false);
  for (const auto& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "X") continue;
    const auto& name = e.at("name").as_string();
    const int pid = static_cast<int>(e.at("pid").as_number());
    if (pid >= 0 && pid < kWorld) rank_lane[pid] = true;
    if (name.rfind("forward.", 0) == 0) saw_forward = true;
    if (name.rfind("backward.", 0) == 0) saw_backward = true;
    if (name.rfind("allreduce.", 0) == 0) {
      saw_allreduce = true;
      // Comm spans must carry their payload size.
      EXPECT_GT(e.at("args").at("bytes").as_number(), 0.0);
    }
    if (name == "phase.forward" || name == "phase.allreduce") saw_phase = true;
  }
  EXPECT_TRUE(saw_forward);
  EXPECT_TRUE(saw_backward);
  EXPECT_TRUE(saw_allreduce);
  EXPECT_TRUE(saw_phase);
  for (int r = 0; r < kWorld; ++r) {
    EXPECT_TRUE(rank_lane[r]) << "rank " << r << " recorded no spans";
  }

  // The per-phase summary that feeds the scaling-ratio report is present:
  // on the serial path every phase once per iteration per rank.
  std::map<std::string, obs::SpanStat> stats;
  for (const auto& st : obs::tracer().summary()) stats[st.name] = st;
  for (const char* phase : {"phase.data", "phase.forward", "phase.backward",
                            "phase.allreduce", "phase.step"}) {
    EXPECT_EQ(stats[phase].count, iterations * kWorld) << phase;
    EXPECT_GT(stats[phase].total_ns, 0) << phase;
  }
  obs::tracer().clear();
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, TraceSmokeDriver,
    ::testing::Values("sync", "fault_tolerant", "elastic"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

#endif  // MINSGD_TRACE_OFF

TEST(TraceSmoke, DisabledTrainingRecordsNoSpans) {
  const auto proxy = core::micro_proxy();
  data::SyntheticImageNet dataset(proxy.dataset);

  train::TrainOptions topt;
  topt.global_batch = proxy.base_batch;
  topt.epochs = 1;
  topt.init_seed = 3;
  const optim::ConstantLr schedule(proxy.base_lr);

  obs::tracer().clear();
  ASSERT_FALSE(obs::tracer().enabled());
  auto net = proxy.alexnet_factory()();  // train_single inits from the seed
  optim::Lars opt({.trust_coeff = proxy.lars_trust});
  const auto res = train::train_single(*net, opt, schedule, dataset, topt);
  ASSERT_GT(res.iterations_run, 0);
  EXPECT_EQ(obs::tracer().span_count(), 0u);
}

}  // namespace
}  // namespace minsgd
