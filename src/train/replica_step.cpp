#include "train/replica_step.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"
#include "train/checkpoint.hpp"

namespace minsgd::train {

namespace {

[[noreturn]] void reject(const char* who, const char* what) {
  throw std::invalid_argument(std::string(who) + ": " + what);
}

}  // namespace

void check_world(const TrainOptions& options, const char* who, int world) {
  if (world <= 0) reject(who, "world <= 0");
  if (options.global_batch % world != 0) {
    reject(who, "global_batch % world != 0");
  }
}

void validate_sync_options(const TrainOptions& options, const char* who,
                           int world, bool one_bit) {
  check_world(options, who, world);
  // Checked before any cluster thread is spawned: a bad value used to
  // surface only once the bucket loop ran.
  check_bucket_bytes(options.bucket_bytes, who);
  if (options.accumulation_steps != 1) {
    reject(who, "accumulation_steps is unsupported");
  }
  if (options.compress_one_bit && !one_bit) {
    reject(who, "compress_one_bit is unsupported");
  }
  if (options.overlap_comm && options.compress_one_bit) {
    reject(who, "overlap_comm is incompatible with compress_one_bit");
  }
}

std::size_t thread_budget(const TrainOptions& options, int ranks) {
  const std::size_t budget = options.compute_threads != 0
                                 ? options.compute_threads
                                 : ComputeContext::default_threads();
  return std::max<std::size_t>(1, budget / static_cast<std::size_t>(ranks));
}

bool DivergenceTest::operator()(double loss) {
  if (first_loss < 0) first_loss = loss;
  return options.detect_divergence &&
         (!std::isfinite(loss) ||
          loss > options.divergence_factor * first_loss);
}

void EpochTally::add(double loss, std::int64_t hits, std::int64_t samples) {
  loss_sum += loss;
  correct += hits;
  examples += samples;
  ++iters;
}

EpochRecord EpochTally::record(std::int64_t epoch, double lr,
                               double test_acc) const {
  EpochRecord rec;
  rec.epoch = epoch;
  rec.lr = lr;
  rec.train_loss = iters > 0 ? loss_sum / static_cast<double>(iters) : 0.0;
  rec.train_acc = examples > 0 ? static_cast<double>(correct) /
                                     static_cast<double>(examples)
                               : 0.0;
  rec.test_acc = test_acc;
  return rec;
}

void close_epoch(EpochRecord& rec, bool last, const TrainOptions& options,
                 nn::Network& net, const data::SyntheticImageNet& dataset,
                 const ComputeContext& ctx) {
  if (last || rec.epoch % options.eval_every == 0) {
    rec.test_acc = evaluate(net, dataset, 256, ctx);
  }
  if (!options.verbose) return;
  std::printf(
      "epoch %3lld  lr %.5f  loss %.4f  train_acc %.4f  test_acc %.4f\n",
      static_cast<long long>(rec.epoch), rec.lr, rec.train_loss, rec.train_acc,
      rec.test_acc);
  std::fflush(stdout);
}

void finalize(TrainResult& result) {
  for (const auto& e : result.epochs) {
    result.best_test_acc = std::max(result.best_test_acc, e.test_acc);
  }
  if (!result.epochs.empty()) {
    result.final_test_acc = result.epochs.back().test_acc;
  }
}

void persist_comm_metrics(const comm::SimCluster& cluster,
                          std::int64_t exposed_ns, std::int64_t total_ns) {
  auto& reg = obs::metrics();
  const comm::TrafficStats traffic = cluster.total_traffic();
  reg.counter("train.traffic.messages").add(traffic.messages);
  reg.counter("train.traffic.bytes").add(traffic.bytes);
  for (const auto& [op, st] : cluster.traffic_by_op()) {
    reg.counter("train.traffic." + op + ".messages").add(st.messages);
    reg.counter("train.traffic." + op + ".bytes").add(st.bytes);
  }
  // With overlap_comm the gap between the two is the communication the
  // backward pass hid.
  reg.counter("train.allreduce.exposed_ns").add(exposed_ns);
  reg.counter("train.allreduce.total_ns").add(total_ns);
}

// -- ReplicaStep --------------------------------------------------------------

ReplicaStep::ReplicaStep(nn::Network& net, const TrainOptions& options,
                         comm::AllreduceAlgo algo)
    : net_(net), options_(options), algo_(algo), params_(net.params()) {}

void ReplicaStep::bind(comm::Communicator& comm) {
  unbind();
  comm_ = &comm;
  if (options_.overlap_comm) {
    overlap_ = std::make_unique<OverlapAllreducer>(
        net_, comm, options_.bucket_bytes, algo_);
  }
  if (options_.compress_one_bit && !compressor_) {
    compressor_ = std::make_unique<comm::OneBitCompressor>(
        static_cast<std::size_t>(net_.num_params()));
  }
}

void ReplicaStep::unbind() {
  if (overlap_) {
    retired_busy_ns_ += overlap_->comm_ns();
    overlap_.reset();  // joins the comm worker before its transport goes
  }
  comm_ = nullptr;
}

nn::LossResult ReplicaStep::compute(const data::ShardedLoader& loader,
                                    std::int64_t epoch, std::int64_t it,
                                    const ComputeContext& ctx,
                                    bool accumulate) {
  data::Batch batch;
  {
    obs::ScopedSpan sp("phase.data", obs::cat::kPhase);
    batch = loader.load_train(epoch, it, ctx);
  }
  if (!accumulate) net_.zero_grad();
  nn::LossResult lres;
  auto pc = plan_.context(net_, batch.x.shape());
  {
    obs::ScopedSpan sp("phase.forward", obs::cat::kPhase);
    net_.forward(batch.x, logits_, /*training=*/true, ctx, &pc);
    lres = loss_.forward_backward(logits_, batch.labels, &dlogits_, ctx);
  }
  if (overlap_) overlap_->begin_iteration();
  {
    obs::ScopedSpan sp("phase.backward", obs::cat::kPhase);
    // With overlap on, the gradient-ready hook fires in here: each
    // finalized layer is copied into the flat buffer and full buckets
    // launch on the comm worker while later layers still compute.
    net_.backward(batch.x, logits_, dlogits_, dx_, ctx, &pc);
  }
  return lres;
}

void ReplicaStep::local_step(optim::Optimizer& opt, double lr,
                             const ComputeContext& ctx, std::int64_t iter,
                             float grad_scale) {
  obs::ScopedSpan sp("phase.step", obs::cat::kPhase);
  if (grad_scale != 1.0f) {
    for (auto& p : params_) scale(ctx, grad_scale, p.grad->span());
  }
  opt.step(params_, lr, ctx);
  MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0, 0, 0,
                iter);
}

void ReplicaStep::reduce_and_step(optim::Optimizer& opt, double lr,
                                  const ComputeContext& ctx,
                                  std::int64_t iter) {
  if (!overlap_) net_.flatten_grads_into(flat_);
  // Exposed communication: all of the serial reduce, or with overlap only
  // the wait for buckets the comm worker did not finish during backward.
  const auto t0 = std::chrono::steady_clock::now();
  const std::span<float> flat = overlap_ ? overlap_->finish() : reduce_serial();
  exposed_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  {
    obs::ScopedSpan sp("phase.step", obs::cat::kPhase);
    // Each local gradient is the mean over the local shard, so the
    // global-batch mean is the rank-sum divided by world.
    scale(ctx, 1.0f / static_cast<float>(comm_->world()), flat);
    net_.unflatten_grads(flat);
    opt.step(params_, lr, ctx);
  }
  MINSGD_FLIGHT(obs::FlightKind::kStep, obs::FlightOp::kNone, 0, 0,
                comm_->generation(), 0, iter);
}

std::span<float> ReplicaStep::reduce_serial() {
  const std::span<float> flat(flat_);
  obs::ScopedSpan sp("phase.allreduce", obs::cat::kPhase);
  sp.set_bytes(static_cast<std::int64_t>(flat.size()) * 4);
  if (compressor_) {
    // 1-bit SGD: compress locally (error feedback), allgather the
    // payloads, reconstruct and sum every rank's contribution.
    const auto payload = compressor_->compress(flat);
    const auto world = static_cast<std::size_t>(comm_->world());
    std::vector<float> all(payload.size() * world);
    comm_->allgather(payload, all);
    std::fill(flat.begin(), flat.end(), 0.0f);
    for (std::size_t r = 0; r < world; ++r) {
      comm::OneBitCompressor::decompress_add(
          std::span<const float>(all).subspan(r * payload.size(),
                                              payload.size()),
          flat);
    }
  } else if (options_.bucket_bytes > 0) {
    // The same bucket boundaries OverlapAllreducer uses, so overlap on and
    // off reduce every element in the same order.
    const auto bucket = static_cast<std::size_t>(options_.bucket_bytes / 4);
    for (std::span<float> rest = flat; !rest.empty();) {
      const auto n = std::min(bucket, rest.size());
      comm_->allreduce_sum(rest.subspan(0, n), algo_);
      rest = rest.subspan(n);
    }
  } else {
    comm_->allreduce_sum(flat, algo_);
  }
  return flat;
}

StepStats ReplicaStep::reduce_stats(const nn::LossResult& local) {
  float stats[2] = {static_cast<float>(local.loss),
                    static_cast<float>(local.correct)};
  comm_->allreduce_sum(std::span<float>(stats, 2), algo_);
  return {stats[0] / comm_->world(), static_cast<std::int64_t>(stats[1])};
}

std::int64_t ReplicaStep::total_comm_ns() const {
  if (!options_.overlap_comm) return exposed_ns_;
  return retired_busy_ns_ + (overlap_ ? overlap_->comm_ns() : 0);
}

// -- fixed-world synchronous training ----------------------------------------

TrainResult SharedProgress::result() {
  std::lock_guard lk(mu);
  TrainResult res;
  for (const auto& [epoch, rec] : epochs) res.epochs.push_back(rec);
  res.diverged = diverged;
  res.iterations_run = global_iter;
  finalize(res);
  return res;
}

void run_fixed_world_rank(comm::Communicator& comm, const FixedWorldRun& run,
                          SharedProgress& progress) {
  const TrainOptions& o = run.options;
  const int rank = comm.rank();
  // This rank's slice of the cluster-wide compute budget.
  const ComputeContext& ctx = comm.ctx();
  // Every rank builds an identical replica (same init seed).
  auto net = run.model_factory();
  Rng rng(o.init_seed);
  net->init(rng);
  auto opt = run.opt_factory();
  data::ShardedLoader loader(run.dataset, o.global_batch, rank, run.world,
                             o.augment);
  const std::int64_t iters = loader.iterations_per_epoch();
  ReplicaStep replica(*net, o, run.algo);
  replica.bind(comm);

  const bool checkpointing = !run.checkpoint_path.empty();
  std::int64_t start_epoch = 0, start_iter = 0, global_iter = 0;
  if (checkpointing && std::ifstream(run.checkpoint_path).good()) {
    // Every rank restores the identical replica the cluster had after the
    // checkpointed step; the next iteration then proceeds exactly as the
    // uninterrupted run would have.
    TrainCheckpoint meta;
    load_train_checkpoint(run.checkpoint_path, *net, *opt, meta, run.world,
                          o.global_batch);
    start_epoch = meta.epoch;
    start_iter = meta.iter;
    global_iter = meta.global_iter;
    rng.set_state(meta.rng);
  }

  DivergenceTest diverging{o};
  {
    std::lock_guard lk(progress.mu);
    diverging.first_loss = progress.first_loss;
  }
  bool stop = false;
  for (std::int64_t epoch = start_epoch; epoch < o.epochs && !stop; ++epoch) {
    EpochTally tally;
    const double epoch_lr = run.schedule.lr(global_iter);
    for (std::int64_t it = (epoch == start_epoch ? start_iter : 0);
         it < iters && !stop; ++it, ++global_iter) {
      const nn::LossResult local = replica.compute(loader, epoch, it, ctx);
      replica.reduce_and_step(*opt, run.schedule.lr(global_iter), ctx,
                              global_iter);
      const StepStats stats = replica.reduce_stats(local);
      tally.add(stats.mean_loss, stats.correct, o.global_batch);
      const bool first = diverging.first_loss < 0;
      stop = diverging(stats.mean_loss);  // same scalars on every rank
      if (first && rank == 0) {
        std::lock_guard lk(progress.mu);
        progress.first_loss = diverging.first_loss;
      }

      const std::int64_t done = global_iter + 1;
      if (checkpointing && rank == 0 && done % run.checkpoint_every == 0) {
        save_train_checkpoint(run.checkpoint_path, *net, *opt,
                              {.epoch = done / iters,
                               .iter = done % iters,
                               .global_iter = done,
                               .world = run.world,
                               .global_batch = o.global_batch,
                               .rng = rng.state()});
        std::lock_guard lk(progress.mu);
        ++progress.checkpoints_written;
      }
    }

    if (rank == 0) {
      // After a mid-epoch resume the tally covers only the replayed tail of
      // the epoch; weights are exact, per-epoch averages are best-effort.
      EpochRecord rec = tally.record(epoch, epoch_lr);
      close_epoch(rec, epoch + 1 == o.epochs || stop, o, *net, run.dataset,
                  ctx);
      std::lock_guard lk(progress.mu);
      progress.epochs[epoch] = rec;
      progress.exposed_comm_ns = replica.exposed_comm_ns();
      progress.total_comm_ns = replica.total_comm_ns();
    }
    comm.barrier();  // keep epochs aligned (rank 0 evaluates)
  }

  if (rank == 0) {
    std::lock_guard lk(progress.mu);
    progress.final_weights = net->flatten_params();
    progress.global_iter = global_iter;
    progress.diverged = stop;
  }
}

}  // namespace minsgd::train
