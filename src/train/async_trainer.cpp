#include "train/async_trainer.hpp"

#include <atomic>
#include <thread>
#include <vector>

#include "comm/param_server.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "train/replica_step.hpp"

namespace minsgd::train {

AsyncResult train_async_param_server(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const TrainOptions& options, int workers) {
  check_world(options, "train_async_param_server", workers);

  // Server starts from the same deterministic initialization the sync
  // trainers use.
  auto init_net = model_factory();
  Rng init_rng(options.init_seed);
  init_net->init(init_rng);
  comm::ParameterServer server(init_net->flatten_params());
  server.set_workers(workers);

  std::atomic<bool> abort{false};
  std::atomic<double> last_loss{0.0};
  // minsgd-lint: allow(thread-spawn): async parameter-server workers are
  // rank threads, not intra-op compute — each owns a budgeted ComputeContext
  // (a thread_budget() share) so the process-wide thread total stays <= the
  // global budget.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      obs::set_thread_rank(w);  // trace lane per worker
      const ComputeContext ctx(thread_budget(options, workers));
      auto net = model_factory();
      Rng worker_init(options.init_seed);
      net->init(worker_init);  // allocate param storage; overwritten by pull
      std::vector<float> weights(
          static_cast<std::size_t>(net->num_params()));
      server.pull(w, weights);
      net->unflatten_params(weights);

      data::ShardedLoader loader(dataset, options.global_batch, w, workers,
                                 options.augment);
      ReplicaStep replica(*net, options);
      DivergenceTest diverging{options};
      const std::int64_t iters = loader.iterations_per_epoch();

      for (std::int64_t epoch = 0; epoch < options.epochs; ++epoch) {
        for (std::int64_t it = 0; it < iters; ++it) {
          if (abort.load(std::memory_order_relaxed)) return;
          const auto lres = replica.compute(loader, epoch, it, ctx);
          const double lr = schedule.lr(server.updates_applied());
          auto grad = net->flatten_grads();
          {
            obs::ScopedSpan sp("phase.push_pull", obs::cat::kPhase);
            sp.set_bytes(static_cast<std::int64_t>(grad.size()) * 4);
            server.push_pull(w, grad, lr, weights);
          }
          net->unflatten_params(weights);
          MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0,
                        0, 0, it);
          last_loss.store(lres.loss, std::memory_order_relaxed);
          if (diverging(lres.loss)) {
            abort.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  AsyncResult res;
  res.diverged = abort.load();
  res.updates_applied = server.updates_applied();
  res.max_staleness = server.max_staleness();
  res.final_train_loss = last_loss.load();
  // Evaluate the server's final weights.
  std::vector<float> weights(static_cast<std::size_t>(init_net->num_params()));
  server.pull(0, weights);
  init_net->unflatten_params(weights);
  res.final_test_acc = evaluate(*init_net, dataset, 256,
                                ComputeContext(thread_budget(options)));
  return res;
}

}  // namespace minsgd::train
