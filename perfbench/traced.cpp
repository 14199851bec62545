#include "traced.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "comm/cluster.hpp"
#include "data/loader.hpp"
#include "nn/loss.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "train/checkpoint.hpp"
#include "train/fault_tolerant.hpp"
#include "train/metrics.hpp"

namespace perfbench {

using namespace minsgd;

namespace {

/// Times one call on the observing rank; a null `spans` records nothing.
class SpanTimer {
 public:
  SpanTimer(Spans* spans, const char* name)
      : spans_(spans), name_(name), t0_(Clock::now()) {}
  ~SpanTimer() {
    if (spans_) (*spans_)[name_].push_back(ms_between(t0_, Clock::now()));
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  Spans* spans_;
  const char* name_;
  Clock::time_point t0_;
};

/// Layer type token of a layer name: "conv3x3(16->16)/s1" -> "conv3x3".
std::string type_token(const std::string& name) {
  std::string t;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) break;
    t += c;
  }
  return t.empty() ? "layer" : t;
}

/// Names and per-local-batch forward FLOPs of the top-level layers, and the
/// grad-ready hook that times each one's backward.
class LayerClock {
 public:
  LayerClock(nn::Network& net, const Shape& image, std::int64_t local_batch,
             std::vector<LayerSamples>& out)
      : out_(out) {
    Shape s = image;
    for (std::size_t i = 0; i < net.size(); ++i) {
      nn::Layer& l = net.layer(i);
      // A restarted attempt keeps appending to the first attempt's layers.
      if (i >= out_.size()) {
        char idx[24];
        std::snprintf(idx, sizeof(idx), "L%02zu-", i);
        LayerSamples ls;
        ls.name = idx + type_token(l.name());
        ls.flops = static_cast<double>(l.flops(s)) *
                   static_cast<double>(local_batch);
        out_.push_back(std::move(ls));
      }
      s = l.output_shape(s);
    }
    net.set_grad_ready_hook([this](std::size_t i, nn::Layer&) {
      const auto now = Clock::now();
      out_[i].ms.push_back(ms_between(mark_, now));
      mark_ = now;
    });
  }
  void start_backward() { mark_ = Clock::now(); }

 private:
  std::vector<LayerSamples>& out_;
  Clock::time_point mark_;
};

/// Saves and reloads the final state a few times: the checkpoint layer's
/// cost on this workload's model, and a bitwise round-trip check.
void checkpoint_round_trip(const std::string& path, nn::Network& net,
                           const optim::Optimizer& opt, const Setup& setup,
                           const train::TrainCheckpoint& meta, int world,
                           TracedResult& out) {
  const std::vector<float> want = net.flatten_params();
  bool same = true;
  for (int r = 0; r < 3; ++r) {
    {
      SpanTimer t(&out.spans, "train.ckpt_save");
      train::save_train_checkpoint(path, net, opt, meta);
    }
    out.checkpoint_bytes =
        static_cast<std::int64_t>(std::filesystem::file_size(path));
    auto fresh = setup.model_factory();
    auto fresh_opt = setup.recipe.optimizer_factory();
    train::TrainCheckpoint got;
    {
      SpanTimer t(&out.spans, "train.ckpt_load");
      train::load_train_checkpoint(path, *fresh, *fresh_opt, got, world,
                                   meta.global_batch);
    }
    same = same && fnv1a(fresh->flatten_params()) == fnv1a(want) &&
           got.global_iter == meta.global_iter;
  }
  std::filesystem::remove(path);
  out.checkpoint_round_trip = same;
}

/// Step-to-step gap on the observing rank, within one epoch.
class StepGap {
 public:
  void on_step(Spans* spans, bool same_epoch) {
    const auto now = Clock::now();
    if (spans && have_ && same_epoch) {
      (*spans)["train.step_gap"].push_back(ms_between(last_, now));
    }
    last_ = now;
    have_ = true;
  }

 private:
  Clock::time_point last_;
  bool have_ = false;
};

TracedResult traced_single(const Workload& wl, const Setup& setup,
                           const std::string& path) {
  TracedResult out;
  const auto& opts = setup.recipe.options;
  const auto& schedule = *setup.recipe.schedule;
  auto net = setup.model_factory();
  auto opt = setup.recipe.optimizer_factory();
  Rng init_rng(opts.init_seed);
  net->init(init_rng);
  const ComputeContext ctx(wl.compute_threads);
  data::ShardedLoader loader(setup.dataset, opts.global_batch, 0, 1,
                             opts.augment);
  nn::SoftmaxCrossEntropy loss;
  auto params = net->params();
  const std::int64_t iters = loader.iterations_per_epoch();
  const Shape image{1, 3, setup.dataset.resolution(),
                    setup.dataset.resolution()};
  LayerClock layers(*net, image, opts.global_batch, out.layers);
  Spans* spans = &out.spans;
  Tensor logits, dlogits, dx;
  nn::ExecutionPlan plan;
  StepGap gap;
  double first_loss = -1.0;
  std::int64_t global_iter = 0;

  for (std::int64_t epoch = 0; epoch < opts.epochs; ++epoch) {
    for (std::int64_t it = 0; it < iters; ++it, ++global_iter) {
      const auto tasks0 = ctx.pool_stats().tasks_executed;
      net->zero_grad();
      data::Batch batch;
      {
        SpanTimer t(spans, "data.load");
        batch = loader.load_train(epoch, it, ctx);
      }
      nn::LossResult lres;
      auto pc = plan.context(*net, batch.x.shape());
      {
        SpanTimer t(spans, "nn.fwd");
        net->forward(batch.x, logits, /*training=*/true, ctx, &pc);
        lres = loss.forward_backward(logits, batch.labels, &dlogits, ctx);
      }
      {
        SpanTimer t(spans, "nn.bwd");
        layers.start_backward();
        net->backward(batch.x, logits, dlogits, dx, ctx, &pc);
      }
      {
        SpanTimer t(spans, "optim.step");
        opt->step(params, schedule.lr(global_iter), ctx);
      }
      gap.on_step(spans, it > 0);
      out.pool_tasks.push_back(
          static_cast<double>(ctx.pool_stats().tasks_executed - tasks0));
      ++out.iterations;
      // train_single's divergence rule, on the unaveraged step loss.
      if (first_loss < 0) first_loss = lres.loss;
      if (opts.detect_divergence &&
          (!std::isfinite(lres.loss) ||
           lres.loss > opts.divergence_factor * first_loss)) {
        out.diverged = true;
        SpanTimer t(spans, "nn.eval");
        out.epoch_acc.push_back(train::evaluate(*net, setup.dataset, 256, ctx));
        out.final_weights = net->flatten_params();
        return out;
      }
    }
    SpanTimer t(spans, "nn.eval");
    out.epoch_acc.push_back(train::evaluate(*net, setup.dataset, 256, ctx));
  }
  out.final_weights = net->flatten_params();
  train::TrainCheckpoint meta;
  meta.epoch = opts.epochs;
  meta.global_iter = global_iter;
  meta.global_batch = opts.global_batch;
  meta.rng = init_rng.state();
  checkpoint_round_trip(path, *net, *opt, setup, meta, 1, out);
  return out;
}

/// The sync and fault-tolerant trainers' rank loop. The overlap workload
/// runs the serial bucketed path here (the grad-ready hook is the layer
/// clock's); both paths give the same bits by the overlap contract.
TracedResult traced_distributed(const Workload& wl, const Setup& setup,
                                const std::string& path) {
  TracedResult out;
  const auto& opts = setup.recipe.options;
  const auto& schedule = *setup.recipe.schedule;
  const int world = wl.world;
  const bool checkpointing = wl.checkpoint_every > 0;
  const auto algo = wl.algo;
  const auto injector = make_injector(wl, setup);
  std::filesystem::remove(path);

  std::optional<comm::SimCluster> cluster;
  std::vector<double> barrier_ms;  // rank 1's, merged after the run
  auto rank_fn = [&](comm::Communicator& comm) {
    const int rank = comm.rank();
    Spans* spans = rank == 0 ? &out.spans : nullptr;
    const ComputeContext& ctx = comm.ctx();
    auto net = setup.model_factory();
    Rng rng(opts.init_seed);
    net->init(rng);
    auto opt = setup.recipe.optimizer_factory();
    auto params = net->params();
    data::ShardedLoader loader(setup.dataset, opts.global_batch, rank, world,
                               opts.augment);
    nn::SoftmaxCrossEntropy loss;
    const std::int64_t iters = loader.iterations_per_epoch();
    std::vector<LayerSamples> scratch_layers;
    const Shape image{1, 3, setup.dataset.resolution(),
                      setup.dataset.resolution()};
    LayerClock layers(*net, image, loader.local_batch(),
                      rank == 0 ? out.layers : scratch_layers);
    Tensor logits, dlogits, dx;
    nn::ExecutionPlan plan;
    std::vector<float> flat;
    const float inv_world = 1.0f / static_cast<float>(world);
    StepGap gap;

    std::int64_t start_epoch = 0, start_iter = 0, global_iter = 0;
    if (checkpointing && std::filesystem::exists(path)) {
      train::TrainCheckpoint meta;
      {
        SpanTimer t(spans, "train.ckpt_load");
        train::load_train_checkpoint(path, *net, *opt, meta, world,
                                     opts.global_batch);
      }
      start_epoch = meta.epoch;
      start_iter = meta.iter;
      global_iter = meta.global_iter;
      rng.set_state(meta.rng);
    }

    double first_loss = -1.0;
    bool stop = false;
    for (std::int64_t epoch = start_epoch; epoch < opts.epochs && !stop;
         ++epoch) {
      const std::int64_t first_it = epoch == start_epoch ? start_iter : 0;
      for (std::int64_t it = first_it; it < iters && !stop;
           ++it, ++global_iter) {
        data::Batch batch;
        {
          SpanTimer t(spans, "data.load");
          batch = loader.load_train(epoch, it, ctx);
        }
        net->zero_grad();
        nn::LossResult lres;
        auto pc = plan.context(*net, batch.x.shape());
        {
          SpanTimer t(spans, "nn.fwd");
          net->forward(batch.x, logits, /*training=*/true, ctx, &pc);
          lres = loss.forward_backward(logits, batch.labels, &dlogits, ctx);
        }
        {
          SpanTimer t(spans, "nn.bwd");
          layers.start_backward();
          net->backward(batch.x, logits, dlogits, dx, ctx, &pc);
        }
        net->flatten_grads_into(flat);
        {
          const auto msgs0 = cluster->rank_traffic(0).messages;
          SpanTimer t(spans, "comm.grad_allreduce");
          std::span<float> rest(flat);
          const auto bucket = static_cast<std::size_t>(
              wl.bucket_bytes > 0 ? wl.bucket_bytes / 4 : rest.size());
          while (!rest.empty()) {
            const auto n = std::min(bucket, rest.size());
            comm.allreduce_sum(rest.subspan(0, n), algo);
            rest = rest.subspan(n);
          }
          if (rank == 0) {
            out.grad_msgs.push_back(static_cast<double>(
                cluster->rank_traffic(0).messages - msgs0));
          }
        }
        {
          SpanTimer t(spans, "optim.step");
          scale(ctx, inv_world, flat);
          net->unflatten_grads(flat);
          opt->step(params, schedule.lr(global_iter), ctx);
        }
        gap.on_step(spans, it > first_it);
        float stats[2] = {static_cast<float>(lres.loss),
                          static_cast<float>(lres.correct)};
        comm.allreduce_sum(std::span<float>(stats, 2), algo);
        const double mean_loss = stats[0] / world;
        if (first_loss < 0) first_loss = mean_loss;
        if (opts.detect_divergence &&
            (!std::isfinite(mean_loss) ||
             mean_loss > opts.divergence_factor * first_loss)) {
          stop = true;
        }

        if (checkpointing && rank == 0 &&
            (global_iter + 1) % wl.checkpoint_every == 0) {
          train::TrainCheckpoint meta;
          meta.global_iter = global_iter + 1;
          meta.epoch = (it + 1 == iters) ? epoch + 1 : epoch;
          meta.iter = (it + 1 == iters) ? 0 : it + 1;
          meta.world = world;
          meta.global_batch = opts.global_batch;
          meta.rng = rng.state();
          SpanTimer t(spans, "train.ckpt_save");
          train::save_train_checkpoint(path, *net, *opt, meta);
          ++out.checkpoints;
        }
      }
      if (rank == 0) {
        SpanTimer t(spans, "nn.eval");
        const double acc = train::evaluate(*net, setup.dataset, 256, ctx);
        // A re-run epoch after a restart replaces its earlier record.
        out.epoch_acc.resize(static_cast<std::size_t>(epoch));
        out.epoch_acc.push_back(acc);
      }
      if (rank == 1) {
        // Rank 0 evaluates while rank 1 waits here: the barrier's cost.
        const auto t0 = Clock::now();
        comm.barrier();
        barrier_ms.push_back(ms_between(t0, Clock::now()));
      } else {
        comm.barrier();
      }
    }
    if (rank == 0) {
      out.diverged = stop;
      out.iterations = global_iter;
      out.final_weights = net->flatten_params();
      train::TrainCheckpoint meta;
      meta.epoch = opts.epochs;
      meta.global_iter = global_iter;
      meta.world = world;
      meta.global_batch = opts.global_batch;
      meta.rng = rng.state();
      checkpoint_round_trip(path, *net, *opt, setup, meta, world, out);
    }
  };

  for (;;) {
    cluster.emplace(comm::ClusterOptions{world, wl.compute_threads});
    if (injector) cluster->set_fault_injector(injector);
    try {
      cluster->run(rank_fn);
      out.traffic += cluster->total_traffic();
      break;
    } catch (const comm::FaultError&) {
      out.traffic += cluster->total_traffic();
      ++out.restarts;
      if (out.restarts > train::FaultTolerantOptions{}.max_restarts) throw;
    }
  }
  std::filesystem::remove(path);
  out.spans["comm.barrier"] = std::move(barrier_ms);
  return out;
}

}  // namespace

TracedResult run_traced(const Workload& wl, const Seeds& seeds,
                        const std::string& checkpoint_path) {
  const Setup setup = make_setup(wl, seeds);
  return wl.trainer == Trainer::kSingle
             ? traced_single(wl, setup, checkpoint_path)
             : traced_distributed(wl, setup, checkpoint_path);
}

double sgemm_gflops(double seconds) {
  constexpr std::int64_t n = 256;
  const ComputeContext one(1);
  std::vector<float> a(n * n), b(n * n), c(n * n, 0.0f);
  Rng rng(1);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<double> gflops;
  const auto end = Clock::now() + std::chrono::duration<double>(seconds);
  while (Clock::now() < end || gflops.size() < 5) {
    const auto t0 = Clock::now();
    sgemm(one, Trans::kNo, Trans::kNo, n, n, n, 1.0f, a.data(), n, b.data(),
          n, 0.0f, c.data(), n);
    const double s = ms_between(t0, Clock::now()) / 1e3;
    gflops.push_back(2.0 * n * n * n / s / 1e9);
  }
  return median(gflops);
}

}  // namespace perfbench
