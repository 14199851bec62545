// perfbench traced pass: the trainers' iteration rebuilt from public calls,
// with benchmark-owned spans around each call into a module.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Per-call samples (ms) that rank 0 recorded, keyed by span name:
/// data.load, nn.fwd, nn.bwd, comm.grad_allreduce, optim.step, nn.eval,
/// comm.barrier, train.ckpt_save, train.ckpt_load, train.step_gap.
using Spans = std::map<std::string, std::vector<double>>;

struct LayerSamples {
  std::string name;        // "L<index>-<type>", index in the top-level net
  double flops = 0.0;      // forward FLOPs of one local batch
  std::vector<double> ms;  // backward time per iteration
};

struct TracedResult {
  Spans spans;
  std::vector<LayerSamples> layers;
  std::vector<double> pool_tasks;    // pool fan-outs per iteration
  std::vector<double> grad_msgs;     // rank-0 gradient messages per iteration
  std::vector<double> epoch_acc;
  bool diverged = false;
  std::vector<float> final_weights;
  minsgd::comm::TrafficStats traffic;
  std::int64_t iterations = 0;
  int restarts = 0;
  std::int64_t checkpoints = 0;
  std::int64_t checkpoint_bytes = 0;
  bool checkpoint_round_trip = false;  // reload restored the weights bitwise
};

/// Trains the workload once more with the same seeds, timing every call.
TracedResult run_traced(const Workload& wl, const Seeds& seeds,
                        const std::string& checkpoint_path);

/// Median single-thread GFLOP/s of the public sgemm at a fixed shape.
double sgemm_gflops(double seconds);

}  // namespace perfbench
