#include "train/easgd.hpp"

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "optim/sgd.hpp"
#include "train/replica_step.hpp"

namespace minsgd::train {

EasgdResult train_easgd(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const TrainOptions& options, int workers, EasgdConfig config) {
  check_world(options, "train_easgd", workers);
  if (config.alpha <= 0 || config.alpha >= 1) {
    throw std::invalid_argument("train_easgd: alpha must be in (0, 1)");
  }
  if (config.communication_period <= 0) {
    throw std::invalid_argument("train_easgd: communication_period <= 0");
  }

  // The shared center variable, mutex-protected like a parameter server.
  auto center_net = model_factory();
  Rng init_rng(options.init_seed);
  center_net->init(init_rng);
  std::vector<float> center = center_net->flatten_params();
  std::mutex center_mu;
  std::atomic<std::int64_t> elastic_updates{0};
  std::atomic<bool> abort{false};
  std::atomic<double> last_loss{0.0};

  // minsgd-lint: allow(thread-spawn): EASGD workers are rank threads, not
  // intra-op compute — each one owns a budgeted ComputeContext (a
  // thread_budget() share), mirroring SimCluster's rank-thread arithmetic.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      obs::set_thread_rank(w);  // trace lane per worker
      const ComputeContext ctx(thread_budget(options, workers));
      auto net = model_factory();
      Rng wrng(options.init_seed);
      net->init(wrng);  // all workers start at the center
      optim::Sgd sgd({.momentum = 0.9, .weight_decay = 0.0005});

      data::ShardedLoader loader(dataset, options.global_batch, w, workers,
                                 options.augment);
      ReplicaStep replica(*net, options);
      DivergenceTest diverging{options};
      const std::int64_t iters = loader.iterations_per_epoch();
      std::int64_t step = 0;
      const auto alpha = static_cast<float>(config.alpha);

      for (std::int64_t epoch = 0; epoch < options.epochs; ++epoch) {
        for (std::int64_t it = 0; it < iters; ++it, ++step) {
          if (abort.load(std::memory_order_relaxed)) return;
          const auto lres = replica.compute(loader, epoch, it, ctx);
          replica.local_step(sgd, schedule.lr(step), ctx, step);
          last_loss.store(lres.loss, std::memory_order_relaxed);
          if (diverging(lres.loss)) {
            abort.store(true, std::memory_order_relaxed);
            return;
          }

          if ((step + 1) % config.communication_period == 0) {
            // Elastic synchronization with the center.
            obs::ScopedSpan sp("phase.elastic", obs::cat::kPhase);
            auto flat = net->flatten_params();
            {
              std::lock_guard lk(center_mu);
              for (std::size_t i = 0; i < flat.size(); ++i) {
                const float diff = flat[i] - center[i];
                flat[i] -= alpha * diff;
                center[i] += alpha * diff;
              }
            }
            net->unflatten_params(flat);
            elastic_updates.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EasgdResult res;
  res.diverged = abort.load();
  res.elastic_updates = elastic_updates.load();
  res.final_train_loss = last_loss.load();
  center_net->unflatten_params(center);
  res.center_test_acc = evaluate(*center_net, dataset, 256,
                                 ComputeContext(thread_budget(options)));
  return res;
}

}  // namespace minsgd::train
