#include "train/fault_tolerant.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "core/check.hpp"
#include "train/replica_step.hpp"

namespace minsgd::train {

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
  validate_sync_options(topt, "train_sync_fault_tolerant", world,
                        /*one_bit=*/false);
  if (options.checkpoint_every < 1) {
    throw std::invalid_argument(
        "train_sync_fault_tolerant: checkpoint_every < 1");
  }
  if (options.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "train_sync_fault_tolerant: empty checkpoint_path");
  }
  options.validate();
  const std::string& path = options.checkpoint_path;
  if (!options.resume_existing) std::remove(path.c_str());

  const FixedWorldRun run{model_factory, opt_factory, schedule,
                          dataset,       topt,        world,
                          options.algo,  path,        options.checkpoint_every};
  FaultTolerantResult out;
  SharedProgress progress;
  for (int attempt = 0;; ++attempt) {
    comm::SimCluster cluster(
        comm::ClusterOptions{world, topt.compute_threads});
    if (options.recv_timeout.count() > 0) {
      cluster.set_recv_timeout(options.recv_timeout);
    }
    if (injector) cluster.set_fault_injector(injector);
    // Traffic and comm times of every attempt, failed ones included.
    const auto account = [&] {
      out.traffic += cluster.total_traffic();
      std::lock_guard lk(progress.mu);
      persist_comm_metrics(cluster, progress.exposed_comm_ns,
                           progress.total_comm_ns);
      progress.exposed_comm_ns = progress.total_comm_ns = 0;
    };
    try {
      cluster.run([&](comm::Communicator& comm) {
        run_fixed_world_rank(comm, run, progress);
      });
      account();
      break;
    } catch (const comm::FaultError& e) {
      account();
      ++out.restarts;
      if (out.restarts > options.max_restarts) throw;
      if (topt.verbose) {
        std::printf("fault (attempt %d): %s\n  -> restarting from %s\n",
                    attempt, e.what(),
                    std::ifstream(path).good() ? path.c_str() : "scratch");
        std::fflush(stdout);
      }
    }
  }

  if (injector) out.faults = injector->total();
  out.result = progress.result();
  out.final_weights = std::move(progress.final_weights);
  out.iterations = progress.global_iter;
  out.checkpoints_written = progress.checkpoints_written;
  if (!options.keep_checkpoint) std::remove(path.c_str());
  return out;
}

}  // namespace minsgd::train
