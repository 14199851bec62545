#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <dirent.h>
#include <filesystem>

#include "core/proxy.hpp"
#include "nn/models.hpp"
#include "obs/trace.hpp"
#include "train/fault_tolerant.hpp"
#include "train/trainer.hpp"

namespace perfbench {

using namespace minsgd;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t fnv1a(std::span<const float> v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const float f : v) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

namespace {

/// Threads of this process right now (/proc/self/task entries).
int count_threads() {
  int n = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) {
      if (e->d_name[0] != '.') ++n;
    }
    closedir(d);
  }
  return n;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> t;
    {
      // Conv-trunk bound: backward dominates; large buckets overlapped on
      // the comm worker. One compute thread per rank.
      Workload w;
      w.name = "resnet20-dp2-overlap";
      w.trainer = Trainer::kSync;
      w.resnet = true;
      w.world = 2;
      w.global_batch = 64;
      w.compute_threads = 2;
      w.bucket_bytes = 64 * 1024;
      w.overlap = true;
      w.rule = core::LrRule::kLinearWarmup;
      w.train_size = 1024;
      w.epochs = 6;
      w.target_epoch = 3;
      w.target_acc = 0.90;
      t.push_back(w);
    }
    {
      // The paper's recipe on one worker: LARS at batch 512, augmenting
      // loader, two intra-op threads, no communication.
      Workload w;
      w.name = "alexnet-b512-lars";
      w.trainer = Trainer::kSingle;
      w.global_batch = 512;
      w.compute_threads = 2;
      w.rule = core::LrRule::kLars;
      w.augment = true;
      w.train_size = 4096;
      w.epochs = 8;
      w.target_epoch = 6;
      w.target_acc = 0.90;
      t.push_back(w);
    }
    {
      // Small batch, tiny serial buckets by tree allreduce, checkpoint/
      // restart around one injected crash of rank 1 (replaying the four
      // iterations since the last checkpoint).
      Workload w;
      w.name = "alexnet-dp2-b32-ft";
      w.trainer = Trainer::kFaultTolerant;
      w.world = 2;
      w.global_batch = 32;
      w.compute_threads = 2;
      w.bucket_bytes = 1024;
      w.algo = comm::AllreduceAlgo::kTree;
      w.rule = core::LrRule::kLinearWarmup;
      w.train_size = 1024;
      w.epochs = 8;
      w.target_epoch = 3;
      w.target_acc = 0.95;
      w.checkpoint_every = 8;
      w.crash_iter = 100;
      t.push_back(w);
    }
    return t;
  }();
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Setup make_setup(const Workload& wl, const Seeds& seeds) {
  core::ProxyScale proxy = core::bench_proxy();
  proxy.dataset.seed = seeds.data;
  proxy.dataset.train_size = wl.train_size;
  proxy.model_width = 16;
  data::SyntheticImageNet dataset(proxy.dataset);

  core::RecipeConfig rc = wl.resnet ? proxy.resnet_recipe(wl.global_batch, wl.rule)
                                    : proxy.recipe(wl.global_batch, wl.rule);
  rc.epochs = wl.epochs;
  rc.augment = wl.augment;
  rc.init_seed = seeds.init;
  core::Recipe recipe = core::make_recipe(rc, dataset);
  recipe.options.compute_threads = wl.compute_threads;
  recipe.options.bucket_bytes = wl.bucket_bytes;
  recipe.options.overlap_comm = wl.overlap;

  std::function<std::unique_ptr<nn::Network>()> factory;
  if (wl.resnet) {
    const auto classes = proxy.dataset.classes;
    const auto res = proxy.dataset.resolution;
    factory = [classes, res] { return nn::tiny_resnet(3, classes, res); };
  } else {
    factory = proxy.alexnet_factory();
  }
  return {std::move(dataset), std::move(recipe), std::move(factory)};
}

std::shared_ptr<comm::FaultInjector> make_injector(const Workload& wl,
                                                   const Setup& setup) {
  if (wl.crash_iter <= 0) return nullptr;
  // Rank 1's sends per iteration at world 2, one allreduce per gradient
  // bucket plus one for the loss/accuracy pair: tree sends once (reduce to
  // rank 0), ring twice (reduce-scatter and allgather step) unless the
  // payload is under two floats, which ring hands to tree. The full-world
  // barrier sends nothing.
  const std::int64_t floats = setup.model_factory()->num_params();
  const std::int64_t bucket =
      wl.bucket_bytes > 0 ? wl.bucket_bytes / 4 : floats;
  auto sends_for = [&](std::int64_t n) {
    return wl.algo == comm::AllreduceAlgo::kRing && n >= 2 ? 2 : 1;
  };
  std::int64_t sends = sends_for(2);
  for (std::int64_t lo = 0; lo < floats; lo += bucket) {
    sends += sends_for(std::min(bucket, floats - lo));
  }
  comm::FaultPlan plan;
  plan.crash_rank = 1;
  plan.crash_at_send = wl.crash_iter * sends;
  return std::make_shared<comm::FaultInjector>(plan, wl.world);
}

// -- StepLog ----------------------------------------------------------------

int StepLog::begin_attempt() {
  std::lock_guard lk(mu_);
  return attempts_++;
}

void StepLog::record(const StepSample& s) {
  std::lock_guard lk(mu_);
  samples_.push_back(s);
}

void StepLog::note_save(std::int64_t next_iter) {
  std::lock_guard lk(mu_);
  last_save_ = next_iter;
}

std::int64_t StepLog::last_save() const {
  std::lock_guard lk(mu_);
  return last_save_;
}

void StepLog::note_threads(int n) {
  std::lock_guard lk(mu_);
  threads_ = std::max(threads_, n);
}

std::vector<StepSample> StepLog::samples() const {
  std::lock_guard lk(mu_);
  return samples_;
}

int StepLog::threads() const {
  std::lock_guard lk(mu_);
  return threads_;
}

// -- ProbeOptimizer -----------------------------------------------------------

ProbeOptimizer::ProbeOptimizer(std::unique_ptr<optim::Optimizer> inner,
                               StepLog& log, bool observer)
    : inner_(std::move(inner)),
      log_(log),
      observer_(observer),
      attempt_(observer ? log.begin_attempt() : -1) {}

void ProbeOptimizer::save_state(std::ostream& out) const {
  inner_->save_state(out);
  if (observer_) log_.note_save(next_iter_);
}

void ProbeOptimizer::load_state(std::istream& in) {
  inner_->load_state(in);
  // Only the fault-tolerant trainer loads, and only from the checkpoint
  // rank 0 saved last.
  next_iter_ = log_.last_save();
}

void ProbeOptimizer::do_step(std::span<nn::ParamRef> params, double lr,
                             const ComputeContext& ctx) {
  const auto entry = Clock::now();
  inner_->step(params, lr, ctx);
  const auto ret = Clock::now();
  if (observer_) {
    if (next_iter_ == 0) log_.note_threads(count_threads());
    log_.record({next_iter_, attempt_, entry, ret});
  }
  ++next_iter_;
  if (log_.setup_only()) throw SetupDone();
}

// -- untraced pass ------------------------------------------------------------

RunResult run_untraced(const Workload& wl, const Seeds& seeds,
                       const std::string& checkpoint_path, bool setup_only) {
  RunResult out;
  StepLog log(setup_only);
  out.start = Clock::now();
  const Setup setup = make_setup(wl, seeds);
  const core::Recipe& recipe = setup.recipe;
  const auto opt_factory = [&]() -> std::unique_ptr<optim::Optimizer> {
    // Rank threads carry their rank; the single-process trainer calls the
    // optimizer from the caller's thread (rank -1).
    return std::make_unique<ProbeOptimizer>(recipe.optimizer_factory(), log,
                                            obs::thread_rank() <= 0);
  };

  train::TrainResult result;
  try {
    out.trainer_entry = Clock::now();
    switch (wl.trainer) {
      case Trainer::kSingle: {
        auto net = setup.model_factory();
        auto opt = opt_factory();
        result = train::train_single(*net, *opt, *recipe.schedule,
                                     setup.dataset, recipe.options);
        out.final_weights = net->flatten_params();
        out.iterations = result.iterations_run;
        break;
      }
      case Trainer::kSync: {
        auto r = train::train_sync_data_parallel(
            setup.model_factory, opt_factory, *recipe.schedule,
            setup.dataset, recipe.options, wl.world, wl.algo);
        result = std::move(r.result);
        out.final_weights = std::move(r.final_weights);
        out.traffic = r.traffic;
        out.iterations = r.iterations;
        out.exposed_comm_ns = r.exposed_comm_ns;
        out.total_comm_ns = r.total_comm_ns;
        break;
      }
      case Trainer::kFaultTolerant: {
        train::FaultTolerantOptions fo;
        fo.train = recipe.options;
        fo.checkpoint_every = wl.checkpoint_every;
        fo.checkpoint_path = checkpoint_path;
        fo.algo = wl.algo;
        auto r = train::train_sync_fault_tolerant(
            setup.model_factory, opt_factory, *recipe.schedule,
            setup.dataset, fo, wl.world, make_injector(wl, setup));
        result = std::move(r.result);
        out.final_weights = std::move(r.final_weights);
        out.traffic = r.traffic;
        out.iterations = r.iterations;
        out.restarts = r.restarts;
        out.checkpoints = r.checkpoints_written;
        break;
      }
    }
    out.trainer_return = Clock::now();
  } catch (const std::exception&) {
    // A set-up run ends in the probe's exception (wrapped by the cluster's
    // error aggregation on distributed trainers); anything else is real.
    if (!setup_only || log.samples().empty()) throw;
    if (!checkpoint_path.empty()) std::filesystem::remove(checkpoint_path);
  }
  out.steps = log.samples();
  // Distributed trainers park the calling thread in the rank-thread join.
  out.threads = log.threads() - (wl.trainer == Trainer::kSingle ? 0 : 1);
  for (const auto& e : result.epochs) out.epoch_acc.push_back(e.test_acc);
  out.diverged = result.diverged;
  out.checkpoint_left =
      !checkpoint_path.empty() && std::filesystem::exists(checkpoint_path);
  return out;
}

}  // namespace perfbench
