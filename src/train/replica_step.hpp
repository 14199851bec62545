// One replica's iteration, written once for every trainer.
//
// The paper's Figure 2(a) system has a single update rule: each rank
// computes a local gradient, the ranks allreduce it, and every rank applies
// the same SGD/LARS step. ReplicaStep is that rule:
//
//   compute()          phase.data -> zero_grad -> plan.context ->
//                      phase.forward (forward + loss) -> phase.backward
//                      (the overlap hook fires inside backward)
//   reduce_and_step()  overlap finish(), or flatten + the serial single /
//                      bucketed / 1-bit allreduce inside phase.allreduce ->
//                      x 1/world -> unflatten -> opt.step -> kStep record
//   reduce_stats()     the loss/correct allreduce every rank reports from
//
// All six trainers run compute(). The synchronous ones bind the reduce half
// to a communicator (elastic rebinds it after every membership change), and
// fixed-world sync and fault-tolerant training share one rank loop that
// checkpoints only when given a path. Each driver keeps what differs:
// restarts, membership generations, the EASGD center or the parameter server.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "comm/compress.hpp"
#include "nn/loss.hpp"
#include "nn/plan.hpp"
#include "train/overlap.hpp"
#include "train/trainer.hpp"

namespace minsgd::train {

/// Throws std::invalid_argument, prefixed by `who`, unless `world` >= 1
/// ranks can split options.global_batch evenly.
void check_world(const TrainOptions& options, const char* who, int world);

/// Throws std::invalid_argument, prefixed by `who`, for options a
/// synchronous data-parallel driver cannot honour: a bad world (see
/// check_world), bucket_bytes neither 0 nor >= 4, accumulation_steps != 1,
/// overlap_comm with compress_one_bit, and compress_one_bit at all unless
/// `one_bit` (its error-feedback residual is in no checkpoint, so a restart
/// or a join could not be exact).
void validate_sync_options(const TrainOptions& options, const char* who,
                           int world, bool one_bit);

/// Intra-op threads each of `ranks` threads gets when they split the
/// options' budget (compute_threads, or ComputeContext::default_threads()
/// when 0): max(1, budget / ranks), SimCluster's per-rank arithmetic.
std::size_t thread_budget(const TrainOptions& options, int ranks = 1);

/// The divergence test every trainer applies to its per-step loss: a
/// non-finite loss, or one above divergence_factor x the run's first loss.
/// The first loss tested becomes the baseline unless one was set already.
struct DivergenceTest {
  const TrainOptions& options;
  double first_loss = -1.0;  // the baseline; < 0 until set

  bool operator()(double loss);
};

/// Running sums of one epoch (one window for the elastic trainer).
struct EpochTally {
  double loss_sum = 0.0;
  std::int64_t correct = 0;
  std::int64_t iters = 0;     // iterations booked
  std::int64_t examples = 0;  // samples behind `correct`

  void add(double loss, std::int64_t hits, std::int64_t samples);
  /// Mean loss and accuracy over what was booked (0 when nothing was).
  EpochRecord record(std::int64_t epoch, double lr,
                     double test_acc = 0.0) const;
};

/// Finishes an epoch on the reporting rank: evaluates `net` into
/// rec.test_acc every eval_every-th epoch and on the `last` one (which also
/// marks a run that stops early), and prints the record when verbose.
void close_epoch(EpochRecord& rec, bool last, const TrainOptions& options,
                 nn::Network& net, const data::SyntheticImageNet& dataset,
                 const ComputeContext& ctx);

/// best_test_acc and final_test_acc from the epoch records.
void finalize(TrainResult& result);

/// Adds a finished cluster's wire traffic (total and per collective) and
/// the gradient-allreduce times to the metrics registry, so snapshots taken
/// after training still see them.
void persist_comm_metrics(const comm::SimCluster& cluster,
                          std::int64_t exposed_ns, std::int64_t total_ns);

struct StepStats {
  double mean_loss = 0.0;  // rank-mean of the local losses
  std::int64_t correct = 0;
};

class ReplicaStep {
 public:
  /// `net` (initialized) and `options` must outlive the step. `algo` is
  /// the gradient and stats allreduce algorithm.
  ReplicaStep(nn::Network& net, const TrainOptions& options,
              comm::AllreduceAlgo algo = comm::AllreduceAlgo::kRing);

  ReplicaStep(const ReplicaStep&) = delete;
  ReplicaStep& operator=(const ReplicaStep&) = delete;

  /// Binds the reduce half to `comm`, which must outlive the binding: with
  /// overlap_comm an OverlapAllreducer (and its comm worker) hooks into
  /// backward. The 1-bit residual survives rebinding.
  void bind(comm::Communicator& comm);
  /// Drops the comm-bound part, joining the overlap comm worker.
  void unbind();

  /// Loads batch `it` of `epoch` and runs forward + loss + backward.
  /// `accumulate` keeps the gradients of earlier micro-batches.
  nn::LossResult compute(const data::ShardedLoader& loader,
                         std::int64_t epoch, std::int64_t it,
                         const ComputeContext& ctx, bool accumulate = false);

  /// Unreduced step for a replica that owns its gradient: multiplies it by
  /// `grad_scale` (unless 1) and applies `opt` inside phase.step.
  void local_step(optim::Optimizer& opt, double lr, const ComputeContext& ctx,
                  std::int64_t iter, float grad_scale = 1.0f);

  /// Rank-sums the gradient, divides by world and applies `opt`; every
  /// bound rank ends with the same update. Requires bind().
  void reduce_and_step(optim::Optimizer& opt, double lr,
                       const ComputeContext& ctx, std::int64_t iter);

  /// Allreduces the local loss and hit count. Requires bind().
  StepStats reduce_stats(const nn::LossResult& local);

  /// Gradient-allreduce time the iterations waited on (exposed) and the
  /// collectives' total execution time (hidden + exposed), summed over the
  /// step's life; equal on the serial path.
  std::int64_t exposed_comm_ns() const { return exposed_ns_; }
  std::int64_t total_comm_ns() const;

 private:
  std::span<float> reduce_serial();

  nn::Network& net_;
  const TrainOptions& options_;
  comm::AllreduceAlgo algo_;
  std::vector<nn::ParamRef> params_;
  nn::SoftmaxCrossEntropy loss_;
  nn::ExecutionPlan plan_;  // lives across iterations and rebinds
  Tensor logits_, dlogits_, dx_;
  std::vector<float> flat_;  // serial-path allreduce buffer

  comm::Communicator* comm_ = nullptr;
  std::unique_ptr<OverlapAllreducer> overlap_;
  std::unique_ptr<comm::OneBitCompressor> compressor_;
  std::int64_t exposed_ns_ = 0;
  std::int64_t retired_busy_ns_ = 0;  // comm workers of earlier bindings
};

// -- fixed-world synchronous training ----------------------------------------

/// What every rank of a fixed-world run needs. Without a checkpoint path
/// this is train_sync_data_parallel; with one, rank 0 writes a v2 train
/// checkpoint every `checkpoint_every` global iterations and every rank
/// resumes from the file when it exists (train_sync_fault_tolerant).
struct FixedWorldRun {
  const std::function<std::unique_ptr<nn::Network>()>& model_factory;
  const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory;
  const optim::LrSchedule& schedule;
  const data::SyntheticImageNet& dataset;
  const TrainOptions& options;
  int world;
  comm::AllreduceAlgo algo;
  std::string checkpoint_path = {};
  std::int64_t checkpoint_every = 0;
};

/// What rank 0 hands its driver; the fault-tolerant driver keeps it across
/// restarts. Epoch records are keyed by epoch, so a re-run after a
/// mid-epoch crash replaces the partial record instead of duplicating it.
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
  // Rank 0's gradient-allreduce times in the current attempt, as of its
  // last finished epoch.
  std::int64_t exposed_comm_ns = 0;
  std::int64_t total_comm_ns = 0;

  /// The records, iteration count and divergence flag, finalized.
  TrainResult result();
};

/// Runs one rank of `run` from the checkpoint (if any) to the last epoch or
/// divergence; rank 0 publishes into `progress`.
void run_fixed_world_rank(comm::Communicator& comm, const FixedWorldRun& run,
                          SharedProgress& progress);

}  // namespace minsgd::train
