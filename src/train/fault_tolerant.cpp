#include "train/fault_tolerant.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>

#include "core/check.hpp"
#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "train/checkpoint.hpp"
#include "train/metrics.hpp"
#include "train/overlap.hpp"

namespace minsgd::train {
namespace {

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

/// Mutable bookkeeping shared between the driver and rank 0 across
/// attempts. Epoch records are keyed by epoch so a re-run after a mid-epoch
/// crash replaces the partial record instead of duplicating it.
struct SharedProgress {
  std::mutex mu;
  std::map<std::int64_t, EpochRecord> epochs;
  std::vector<float> final_weights;
  std::int64_t global_iter = 0;
  std::int64_t checkpoints_written = 0;
  bool diverged = false;
  // The run's first mean loss, the divergence baseline. Carried across
  // attempts: a restart replays from a checkpoint, and the replay's first
  // loss is a later (smaller) one.
  double first_loss = -1.0;
};

}  // namespace

void FaultTolerantOptions::validate() const {
  MINSGD_CHECK(max_restarts >= 0, "FaultTolerantOptions: max_restarts ",
               max_restarts, " < 0");
  MINSGD_CHECK(recv_timeout.count() >= 0,
               "FaultTolerantOptions: recv_timeout < 0");
}

FaultTolerantResult train_sync_fault_tolerant(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const FaultTolerantOptions& options, int world,
    std::shared_ptr<comm::FaultInjector> injector) {
  const TrainOptions& topt = options.train;
  if (world <= 0) {
    throw std::invalid_argument("train_sync_fault_tolerant: world <= 0");
  }
  if (topt.global_batch % world != 0) {
    throw std::invalid_argument(
        "train_sync_fault_tolerant: global_batch % world != 0");
  }
  if (options.checkpoint_every < 1) {
    throw std::invalid_argument(
        "train_sync_fault_tolerant: checkpoint_every < 1");
  }
  if (options.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "train_sync_fault_tolerant: empty checkpoint_path");
  }
  options.validate();
  if (topt.bucket_bytes < 0 ||
      (topt.bucket_bytes > 0 && topt.bucket_bytes < 4)) {
    throw std::invalid_argument(
        "train_sync_fault_tolerant: bucket_bytes must be 0 (single bucket) "
        "or >= 4");
  }
  const std::string& path = options.checkpoint_path;
  if (!options.resume_existing) std::remove(path.c_str());

  FaultTolerantResult out;
  SharedProgress progress;

  auto rank_fn = [&](comm::Communicator& comm) {
    const int rank = comm.rank();
    // This rank's slice of the cluster-wide compute budget.
    const ComputeContext& ctx = comm.ctx();
    auto net = model_factory();
    Rng rng(topt.init_seed);
    net->init(rng);
    auto opt = opt_factory();
    auto params = net->params();

    data::ShardedLoader loader(dataset, topt.global_batch, rank, world,
                               topt.augment);
    nn::SoftmaxCrossEntropy loss;
    const std::int64_t iters = loader.iterations_per_epoch();
    Tensor logits, dlogits, dx;
    nn::ExecutionPlan plan;       // per-rank, lives across iterations
    std::vector<float> flat_own;  // hoisted serial-path allreduce buffer
    const float inv_world = 1.0f / static_cast<float>(world);
    std::unique_ptr<OverlapAllreducer> overlap;
    if (topt.overlap_comm) {
      overlap = std::make_unique<OverlapAllreducer>(
          *net, comm, topt.bucket_bytes, options.algo);
    }

    std::int64_t start_epoch = 0, start_iter = 0, global_iter = 0;
    if (file_exists(path)) {
      // Every rank restores the identical replica the cluster had after the
      // checkpointed step; the next iteration then proceeds exactly as the
      // uninterrupted run would have.
      TrainCheckpoint meta;
      load_train_checkpoint(path, *net, *opt, meta, world,
                            topt.global_batch);
      start_epoch = meta.epoch;
      start_iter = meta.iter;
      global_iter = meta.global_iter;
      rng.set_state(meta.rng);
    }

    double first_loss = -1.0;
    {
      std::lock_guard lk(progress.mu);
      first_loss = progress.first_loss;
    }
    bool stop = false;
    for (std::int64_t epoch = start_epoch; epoch < topt.epochs && !stop;
         ++epoch) {
      double epoch_loss = 0.0;
      std::int64_t epoch_correct = 0;
      std::int64_t epoch_iters = 0;
      const double epoch_lr = schedule.lr(global_iter);
      for (std::int64_t it = (epoch == start_epoch ? start_iter : 0);
           it < iters && !stop; ++it, ++global_iter) {
        data::Batch batch;
        {
          obs::ScopedSpan sp("phase.data", obs::cat::kPhase);
          batch = loader.load_train(epoch, it, ctx);
        }
        net->zero_grad();
        nn::LossResult lres;
        auto pc = plan.context(*net, batch.x.shape());
        {
          obs::ScopedSpan sp("phase.forward", obs::cat::kPhase);
          net->forward(batch.x, logits, /*training=*/true, ctx, &pc);
          lres = loss.forward_backward(logits, batch.labels, &dlogits, ctx);
        }
        if (overlap) overlap->begin_iteration();
        {
          obs::ScopedSpan sp("phase.backward", obs::cat::kPhase);
          net->backward(batch.x, logits, dlogits, dx, ctx, &pc);
        }

        // Identical update sequence to train_sync_data_parallel: rank-sum
        // the gradients (bucketed exactly like the sync trainer, so the
        // overlap on/off determinism guarantee carries over), divide by
        // world, step at lr(global_iter).
        std::span<float> flat;
        if (overlap) {
          flat = overlap->finish();
        } else {
          net->flatten_grads_into(flat_own);
          flat = flat_own;
          obs::ScopedSpan sp("phase.allreduce", obs::cat::kPhase);
          sp.set_bytes(static_cast<std::int64_t>(flat.size()) * 4);
          if (topt.bucket_bytes > 0) {
            const auto bucket = static_cast<std::size_t>(topt.bucket_bytes / 4);
            std::span<float> rest(flat);
            while (!rest.empty()) {
              const auto n = std::min(bucket, rest.size());
              comm.allreduce_sum(rest.subspan(0, n), options.algo);
              rest = rest.subspan(n);
            }
          } else {
            comm.allreduce_sum(flat, options.algo);
          }
        }
        {
          obs::ScopedSpan sp("phase.step", obs::cat::kPhase);
          scale(ctx, inv_world, flat);
          net->unflatten_grads(flat);
          opt->step(params, schedule.lr(global_iter), ctx);
        }
        MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0, 0,
                      0, global_iter);

        float stats[2] = {static_cast<float>(lres.loss),
                          static_cast<float>(lres.correct)};
        comm.allreduce_sum(std::span<float>(stats, 2), options.algo);
        const double mean_loss = stats[0] / world;
        epoch_loss += mean_loss;
        epoch_correct += static_cast<std::int64_t>(stats[1]);
        ++epoch_iters;

        if (first_loss < 0) {
          first_loss = mean_loss;  // identical on every rank
          if (rank == 0) {
            std::lock_guard lk(progress.mu);
            progress.first_loss = mean_loss;
          }
        }
        if (topt.detect_divergence &&
            (!std::isfinite(mean_loss) ||
             mean_loss > topt.divergence_factor * first_loss)) {
          stop = true;  // all ranks see the same scalars, so all stop
        }

        if ((global_iter + 1) % options.checkpoint_every == 0 && rank == 0) {
          TrainCheckpoint meta;
          meta.global_iter = global_iter + 1;
          meta.epoch = (it + 1 == iters) ? epoch + 1 : epoch;
          meta.iter = (it + 1 == iters) ? 0 : it + 1;
          meta.world = world;
          meta.global_batch = topt.global_batch;
          meta.rng = rng.state();
          save_train_checkpoint(path, *net, *opt, meta);
          std::lock_guard lk(progress.mu);
          ++progress.checkpoints_written;
        }
      }

      EpochRecord rec;
      rec.epoch = epoch;
      rec.lr = epoch_lr;
      // After a mid-epoch resume these cover only the replayed tail of the
      // epoch; weights are exact, per-epoch averages are best-effort.
      rec.train_loss =
          epoch_iters > 0 ? epoch_loss / static_cast<double>(epoch_iters) : 0.0;
      rec.train_acc =
          epoch_iters > 0
              ? static_cast<double>(epoch_correct) /
                    static_cast<double>(epoch_iters * topt.global_batch)
              : 0.0;
      if (rank == 0) {
        const bool eval_now = (epoch % topt.eval_every == 0) ||
                              (epoch + 1 == topt.epochs) || stop;
        rec.test_acc = eval_now ? evaluate(*net, dataset, 256, ctx) : 0.0;
        if (topt.verbose) {
          std::printf(
              "epoch %3lld  lr %.5f  loss %.4f  train_acc %.4f  test_acc "
              "%.4f\n",
              static_cast<long long>(rec.epoch), rec.lr, rec.train_loss,
              rec.train_acc, rec.test_acc);
          std::fflush(stdout);
        }
        std::lock_guard lk(progress.mu);
        progress.epochs[epoch] = rec;
      }
      comm.barrier();  // keep epochs aligned (rank 0 evaluates)
    }

    if (rank == 0) {
      std::lock_guard lk(progress.mu);
      progress.final_weights = net->flatten_params();
      progress.global_iter = global_iter;
      progress.diverged = stop;
    }
  };

  for (int attempt = 0;; ++attempt) {
    comm::SimCluster cluster(
        comm::ClusterOptions{world, topt.compute_threads});
    if (options.recv_timeout.count() > 0) {
      cluster.set_recv_timeout(options.recv_timeout);
    }
    if (injector) cluster.set_fault_injector(injector);
    try {
      cluster.run(rank_fn);
      out.traffic += cluster.total_traffic();
      break;
    } catch (const comm::FaultError& e) {
      out.traffic += cluster.total_traffic();
      ++out.restarts;
      if (out.restarts > options.max_restarts) throw;
      if (topt.verbose) {
        std::printf("fault (attempt %d): %s\n  -> restarting from %s\n",
                    attempt, e.what(),
                    file_exists(path) ? path.c_str() : "scratch");
        std::fflush(stdout);
      }
    }
  }

  if (injector) out.faults = injector->total();
  {
    std::lock_guard lk(progress.mu);
    for (const auto& [epoch, rec] : progress.epochs) {
      out.result.epochs.push_back(rec);
    }
    out.result.diverged = progress.diverged;
    out.result.iterations_run = progress.global_iter;
    out.final_weights = std::move(progress.final_weights);
    out.iterations = progress.global_iter;
    out.checkpoints_written = progress.checkpoints_written;
  }
  for (const auto& e : out.result.epochs) {
    if (e.test_acc > out.result.best_test_acc) {
      out.result.best_test_acc = e.test_acc;
    }
  }
  if (!out.result.epochs.empty()) {
    out.result.final_test_acc = out.result.epochs.back().test_acc;
  }
  if (!options.keep_checkpoint) std::remove(path.c_str());
  return out;
}

}  // namespace minsgd::train
