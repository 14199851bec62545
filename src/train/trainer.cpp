#include "train/trainer.hpp"

#include <stdexcept>

#include "train/replica_step.hpp"

namespace minsgd::train {

TrainResult train_single(nn::Network& net, optim::Optimizer& opt,
                         const optim::LrSchedule& schedule,
                         const data::SyntheticImageNet& dataset,
                         const TrainOptions& options) {
  if (options.accumulation_steps < 1) {
    throw std::invalid_argument("train_single: accumulation_steps < 1");
  }
  Rng init_rng(options.init_seed);
  net.init(init_rng);
  // The single-process trainer owns the whole intra-op budget.
  const ComputeContext ctx(thread_budget(options));
  data::ShardedLoader loader(dataset, options.global_batch, 0, 1,
                             options.augment);
  const std::int64_t accum = options.accumulation_steps;
  const std::int64_t iters = loader.iterations_per_epoch() / accum;
  if (iters == 0) {
    throw std::invalid_argument(
        "train_single: accumulation_steps exceeds iterations per epoch");
  }
  ReplicaStep replica(net, options);
  DivergenceTest diverging{options};
  // Accumulated micro-batch gradients are averaged so the update is the
  // mean over the effective batch.
  const float inv_accum = 1.0f / static_cast<float>(accum);

  TrainResult res;
  std::int64_t global_iter = 0;
  for (std::int64_t epoch = 0; epoch < options.epochs && !res.diverged;
       ++epoch) {
    EpochTally tally;
    const double epoch_lr = schedule.lr(global_iter);
    for (std::int64_t it = 0; it < iters && !res.diverged;
         ++it, ++global_iter) {
      double step_loss = 0.0;
      std::int64_t correct = 0;
      for (std::int64_t micro = 0; micro < accum; ++micro) {
        const auto lres = replica.compute(loader, epoch, it * accum + micro,
                                          ctx, /*accumulate=*/micro > 0);
        step_loss += lres.loss;
        correct += lres.correct;
      }
      step_loss *= inv_accum;
      replica.local_step(opt, schedule.lr(global_iter), ctx, global_iter,
                         inv_accum);
      tally.add(step_loss, correct, accum * options.global_batch);
      res.diverged = diverging(step_loss);
      ++res.iterations_run;
    }
    EpochRecord rec = tally.record(epoch, epoch_lr);
    close_epoch(rec, epoch + 1 == options.epochs || res.diverged, options,
                net, dataset, ctx);
    res.epochs.push_back(rec);
  }
  finalize(res);
  return res;
}

DistResult train_sync_data_parallel(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const TrainOptions& options, int world, comm::AllreduceAlgo algo) {
  validate_sync_options(options, "train_sync_data_parallel", world,
                        /*one_bit=*/true);
  // The P rank threads split one global intra-op budget between them
  // instead of oversubscribing P copies of a process-wide pool.
  comm::SimCluster cluster(
      comm::ClusterOptions{world, options.compute_threads});
  const FixedWorldRun run{model_factory, opt_factory, schedule, dataset,
                          options,       world,       algo};
  SharedProgress progress;
  cluster.run([&](comm::Communicator& comm) {
    run_fixed_world_rank(comm, run, progress);
  });

  DistResult out;
  out.result = progress.result();
  out.traffic = cluster.total_traffic();
  out.iterations = progress.global_iter;
  out.final_weights = std::move(progress.final_weights);
  out.exposed_comm_ns = progress.exposed_comm_ns;
  out.total_comm_ns = progress.total_comm_ns;
  persist_comm_metrics(cluster, out.exposed_comm_ns, out.total_comm_ns);
  return out;
}

}  // namespace minsgd::train
