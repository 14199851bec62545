// perfbench workloads: the configuration table, the optimizer probe that
// observes a trainer from outside, and the untraced pass that drives the
// trainers through their public entry points.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "comm/traffic.hpp"
#include "core/recipe.hpp"
#include "data/synthetic.hpp"
#include "nn/network.hpp"
#include "optim/optimizer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b);
double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// FNV-1a over the bit patterns of `v`: the bit-identity witness.
std::uint64_t fnv1a(std::span<const float> v);

enum class Trainer { kSingle, kSync, kFaultTolerant };

struct Workload {
  std::string name;
  Trainer trainer = Trainer::kSingle;
  bool resnet = false;  // tiny_resnet(3); otherwise tiny_alexnet width 16
  int world = 1;
  std::int64_t global_batch = 0;
  std::size_t compute_threads = 1;  // the whole run's intra-op budget
  std::int64_t bucket_bytes = 0;
  minsgd::comm::AllreduceAlgo algo = minsgd::comm::AllreduceAlgo::kRing;
  bool overlap = false;
  minsgd::core::LrRule rule = minsgd::core::LrRule::kLinearWarmup;
  bool augment = false;
  std::int64_t train_size = 0;
  std::int64_t epochs = 0;
  /// Time to accuracy is taken at the end of epoch `target_epoch`
  /// (0-based), where test accuracy must have reached `target_acc`.
  std::int64_t target_epoch = 0;
  double target_acc = 0.0;
  std::int64_t checkpoint_every = 0;  // 0: the trainer writes no checkpoint
  /// Global iteration at whose first send rank 1 crashes; 0: no crash.
  /// Use it with the tree allreduce: there rank 0 sends only after hearing
  /// from rank 1, so none of its sends races the abort and the crashed
  /// attempt's traffic is exact (under ring, rank 0's matching send lands
  /// before the abort in some runs and not in others).
  std::int64_t crash_iter = 0;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

struct Seeds {
  std::uint64_t data = 0;  // SynthConfig::seed
  std::uint64_t init = 0;  // TrainOptions::init_seed
};

/// Everything one training run is built from. Constructing it is the start
/// of a workload's set-up (it generates the dataset).
struct Setup {
  minsgd::data::SyntheticImageNet dataset;
  minsgd::core::Recipe recipe;
  std::function<std::unique_ptr<minsgd::nn::Network>()> model_factory;
};
Setup make_setup(const Workload& wl, const Seeds& seeds);

/// The workload's fault plan as an injector, or null when it has none.
std::shared_ptr<minsgd::comm::FaultInjector> make_injector(const Workload& wl,
                                                           const Setup& setup);

/// One rank-0 optimizer step as the probe saw it.
struct StepSample {
  std::int64_t iter = 0;  // global iteration
  int attempt = 0;        // cluster attempt (restarts start a new one)
  Clock::time_point entry, ret;
};

/// Shared record the ProbeOptimizer instances of one run write into.
class StepLog {
 public:
  explicit StepLog(bool setup_only) : setup_only_(setup_only) {}

  bool setup_only() const { return setup_only_; }
  int begin_attempt();
  void record(const StepSample& s);
  void note_save(std::int64_t next_iter);
  std::int64_t last_save() const;
  void note_threads(int n);
  std::vector<StepSample> samples() const;
  int threads() const;

 private:
  const bool setup_only_;
  mutable std::mutex mu_;
  std::vector<StepSample> samples_;
  int attempts_ = 0;
  std::int64_t last_save_ = 0;
  int threads_ = 0;
};

/// Thrown by every rank's probe after its first step in a set-up-only run.
class SetupDone : public std::runtime_error {
 public:
  SetupDone() : std::runtime_error("perfbench: set-up measured") {}
};

/// Optimizer decorator: forwards everything to the wrapped optimizer and,
/// on rank 0, timestamps each step. It tracks the global iteration through
/// the checkpoint calls the fault-tolerant trainer makes on it (save on rank
/// 0, load on restart), so steps replayed after a restart keep their index.
class ProbeOptimizer final : public minsgd::optim::Optimizer {
 public:
  ProbeOptimizer(std::unique_ptr<minsgd::optim::Optimizer> inner,
                 StepLog& log, bool observer);

  void reset() override { inner_->reset(); }
  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

 protected:
  void do_step(std::span<minsgd::nn::ParamRef> params, double lr,
               const minsgd::ComputeContext& ctx) override;

 private:
  std::unique_ptr<minsgd::optim::Optimizer> inner_;
  StepLog& log_;
  const bool observer_;
  const int attempt_;
  std::int64_t next_iter_ = 0;
};

/// What one untraced run leaves behind.
struct RunResult {
  Clock::time_point start;           // before the dataset is built
  Clock::time_point trainer_entry;   // call into the trainer
  Clock::time_point trainer_return;
  std::vector<StepSample> steps;     // rank 0, in time order
  std::vector<double> epoch_acc;     // test accuracy per epoch
  bool diverged = false;
  std::vector<float> final_weights;
  minsgd::comm::TrafficStats traffic;
  std::int64_t iterations = 0;
  int restarts = 0;
  std::int64_t checkpoints = 0;
  std::int64_t exposed_comm_ns = 0;  // sync trainer only
  std::int64_t total_comm_ns = 0;
  int threads = 0;                   // compute threads live at step 1
  bool checkpoint_left = false;      // checkpoint file still on disk
};

/// Runs the workload through its trainer entry point. With `setup_only`
/// every rank stops right after its first optimizer step.
RunResult run_untraced(const Workload& wl, const Seeds& seeds,
                       const std::string& checkpoint_path, bool setup_only);

}  // namespace perfbench
