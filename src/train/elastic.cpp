#include "train/elastic.hpp"

#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "core/check.hpp"
#include "train/checkpoint.hpp"
#include "train/replica_step.hpp"

namespace minsgd::train {
namespace {

/// Window-aggregated metrics (a "window" is one base-geometry epoch:
/// train_size / base_global_batch iterations, fixed across resizes so the
/// records of runs with different membership histories line up).
struct WindowAgg {
  EpochTally tally;  // iterations actually booked (faults may skip some)
  double lr = 0.0;
  double test_acc = 0.0;
};

struct SharedState {
  std::mutex mu;
  std::map<std::int64_t, WindowAgg> windows;
  bool diverged = false;
  std::vector<float> final_weights;
  std::string final_state;
  std::int64_t iterations = 0;
  std::int64_t exposed_comm_ns = 0;  // the finishing rank 0's step
  std::int64_t total_comm_ns = 0;
};

/// Broadcasts the root's serialized v2 checkpoint (plus the divergence
/// baseline) over the group and loads it on every other member. Raw bytes
/// ride in floats via memcpy; the 4-float header carries the byte length as
/// hi*65536 + lo (both < 2^24, so exact in float) and the baseline. The
/// root does not round-trip its own state: serialize/deserialize is exact,
/// so skipping the reload preserves bit-identity trivially.
void broadcast_state(comm::Communicator& gc, int root, nn::Network& net,
                     optim::Optimizer& opt, TrainCheckpoint& meta,
                     double& first_loss) {
  std::string bytes;
  if (gc.rank() == root) {
    std::ostringstream os;
    save_train_checkpoint(os, net, opt, meta);
    bytes = os.str();
  }
  float hdr[4] = {static_cast<float>(bytes.size() / 65536),
                  static_cast<float>(bytes.size() % 65536),
                  first_loss < 0 ? 0.0f : 1.0f,
                  static_cast<float>(first_loss)};
  gc.broadcast(std::span<float>(hdr, 4), root);
  const std::size_t len = static_cast<std::size_t>(hdr[0]) * 65536 +
                          static_cast<std::size_t>(hdr[1]);
  std::vector<float> payload((len + 3) / 4, 0.0f);
  if (gc.rank() == root) {
    std::memcpy(payload.data(), bytes.data(), bytes.size());
  }
  if (!payload.empty()) {
    gc.broadcast(payload, root);
  }
  if (gc.rank() != root) {
    std::string raw(len, '\0');
    std::memcpy(raw.data(), payload.data(), len);
    std::istringstream is(raw);
    load_train_checkpoint(is, net, opt, meta, /*expect_world=*/0);
    // The baseline crossed the wire as a float; every member (including
    // the root, which rounded at capture) now holds the identical double.
    first_loss = hdr[2] != 0.0f ? static_cast<double>(hdr[3]) : -1.0;
  }
}

}  // namespace

void ElasticOptions::validate() const {
  MINSGD_CHECK(local_batch >= 1, "ElasticOptions: local_batch ", local_batch,
               " < 1");
  MINSGD_CHECK(initial_world >= 1, "ElasticOptions: initial_world ",
               initial_world, " < 1");
  MINSGD_CHECK(max_world >= initial_world, "ElasticOptions: max_world ",
               max_world, " < initial_world ", initial_world);
  MINSGD_CHECK(total_iterations >= 0, "ElasticOptions: total_iterations ",
               total_iterations, " < 0");
  MINSGD_CHECK(base_global_batch >= 0, "ElasticOptions: base_global_batch ",
               base_global_batch, " < 0");
  MINSGD_CHECK(recv_timeout.count() >= 0,
               "ElasticOptions: recv_timeout < 0");
  MINSGD_CHECK(round_timeout.count() > 0,
               "ElasticOptions: round_timeout <= 0");
  MINSGD_CHECK(rendezvous_timeout.count() > 0,
               "ElasticOptions: rendezvous_timeout <= 0");
  MINSGD_CHECK(max_reconfig_rounds >= 1,
               "ElasticOptions: max_reconfig_rounds ", max_reconfig_rounds,
               " < 1");
  MINSGD_CHECK(train.eval_every >= 1, "ElasticOptions: eval_every ",
               train.eval_every, " < 1");
  MINSGD_CHECK(train.epochs >= 1, "ElasticOptions: epochs ", train.epochs,
               " < 1");
  for (const auto& ev : events) {
    MINSGD_CHECK(ev.rank >= 0 && ev.rank < max_world,
                 "ElasticOptions: event rank ", ev.rank,
                 " outside [0, max_world=", max_world, ")");
    MINSGD_CHECK(ev.at_iter >= 0, "ElasticOptions: event at_iter ",
                 ev.at_iter, " < 0");
  }
}

ElasticResult train_sync_elastic(
    const std::function<std::unique_ptr<nn::Network>()>& model_factory,
    const std::function<std::unique_ptr<optim::Optimizer>()>& opt_factory,
    const optim::LrSchedule& schedule, const data::SyntheticImageNet& dataset,
    const ElasticOptions& options,
    std::shared_ptr<comm::FaultInjector> injector) {
  options.validate();
  const TrainOptions& t = options.train;
  // The global batch is local_batch x live world, never split from
  // t.global_batch, so the batch check runs against a world of 1.
  validate_sync_options(t, "train_sync_elastic", 1, /*one_bit=*/false);
  const std::int64_t base_gb =
      options.base_global_batch != 0
          ? options.base_global_batch
          : options.local_batch * options.initial_world;
  if (options.local_batch * options.max_world > dataset.train_size() ||
      base_gb > dataset.train_size()) {
    throw std::invalid_argument(
        "train_sync_elastic: a world's global batch exceeds the training "
        "set");
  }
  // Base-geometry epoch length; the schedule, the eval cadence, and the
  // derived iteration budget all key off it so runs with different
  // membership histories stay comparable.
  const std::int64_t ipw = dataset.train_size() / base_gb;
  const std::int64_t total_iters = options.total_iterations != 0
                                       ? options.total_iterations
                                       : t.epochs * ipw;
  if (total_iters <= 0) {
    throw std::invalid_argument("train_sync_elastic: zero-iteration run");
  }

  comm::SimCluster cluster(
      comm::ClusterOptions{options.max_world, t.compute_threads});
  if (injector) cluster.set_fault_injector(std::move(injector));
  if (options.recv_timeout.count() > 0) {
    cluster.set_recv_timeout(options.recv_timeout);
  }

  comm::MembershipView init;
  init.generation = 0;
  for (int r = 0; r < options.initial_world; ++r) init.ranks.push_back(r);
  comm::ElasticCoordinator::Options copts;
  copts.round_timeout = options.round_timeout;
  copts.rendezvous_timeout = options.rendezvous_timeout;
  copts.max_rounds = options.max_reconfig_rounds;
  comm::ElasticCoordinator coordinator(cluster, init, options.events, copts);

  SharedState shared;

  auto rank_fn = [&](comm::Communicator& comm) {
    const int phys = comm.rank();  // full-world: physical identity
    auto net = model_factory();
    Rng init_rng(t.init_seed);
    net->init(init_rng);
    auto opt = opt_factory();
    optim::ElasticLrScale lrs(schedule, base_gb);

    // Per-generation state, rebuilt by adopt() after every commit.
    std::unique_ptr<comm::Communicator> gc;
    std::unique_ptr<data::ShardedLoader> loader;
    const ComputeContext* ctx = nullptr;
    std::int64_t ipe = 1, gb = 0;
    // Declared after gc so its comm-bound part goes first. Its plan
    // survives generation changes and rebuilds when a resize changes the
    // batch geometry.
    ReplicaStep replica(*net, t, options.algo);

    std::int64_t global_iter = 0;  // next iteration to execute
    std::int64_t steps_done = 0;   // optimizer steps applied to the replica
    bool has_state = false;        // replica holds real training state
    DivergenceTest diverging{t};   // baseline float-rounded, see below
    bool diverged = false;
    bool active = phys < options.initial_world;

    auto teardown = [&] {
      replica.unbind();  // joins the comm worker before transport changes
      loader.reset();
      gc.reset();
      ctx = nullptr;
    };

    auto adopt = [&](const comm::MembershipView& view) {
      replica.unbind();
      gc = std::make_unique<comm::Communicator>(cluster, phys, view, 0);
      ctx = &gc->ctx();
      gb = options.local_batch * view.world();
      loader = std::make_unique<data::ShardedLoader>(dataset, gb, gc->rank(),
                                                     view.world(), t.augment);
      ipe = loader->iterations_per_epoch();
      lrs.set_batch(gb);
      replica.bind(*gc);
    };

    // This replica's checkpoint header once `done` iterations are applied.
    auto position = [&](std::int64_t done) {
      return TrainCheckpoint{.epoch = done / ipe,
                             .iter = done % ipe,
                             .global_iter = done,
                             .world = gc->world(),
                             .global_batch = gb,
                             .rng = Rng(t.init_seed).state()};
    };

    auto state_sync = [&](const comm::ReconfigOutcome& oc) {
      TrainCheckpoint meta =
          oc.is_root ? position(oc.resume_iter) : TrainCheckpoint{};
      broadcast_state(*gc, oc.state_root, *net, *opt, meta,
                      diverging.first_loss);
      global_iter = oc.resume_iter;
      steps_done = oc.resume_iter;
      has_state = true;
    };

    // Reconfiguration driver shared by the fault handlers and the
    // scheduled-event poll. Retries until a committed view either includes
    // this rank with its state synced (stays active) or excludes it (parks
    // as standby). Returns false once the rank is no longer active.
    auto do_reconfig = [&]() -> bool {
      int sync_failures = 0;
      for (;;) {
        replica.unbind();
        try {
          const auto oc =
              coordinator.reconfigure(phys, has_state ? steps_done : -1);
          if (oc.role != comm::MemberRole::kMember) {
            teardown();
            return active = false;
          }
          adopt(oc.view);
          try {
            state_sync(oc);
            return active = true;
          } catch (const comm::RankFailure&) {
            throw;  // crash during the broadcast: handled below
          } catch (const std::exception&) {
            // Torn or corrupted state payload: burn this generation and
            // re-form. Bounded so a persistent failure cannot spin.
            if (++sync_failures > options.max_reconfig_rounds) throw;
            coordinator.report_failure(phys);
            continue;
          }
        } catch (const comm::RankFailure&) {
          coordinator.report_death(phys);
          teardown();
          return active = false;  // the slot parks as a replacement standby
        } catch (const std::runtime_error&) {
          teardown();  // run declared failed; unwind via the standby path
          return active = false;
        }
      }
    };

    if (active) {
      adopt(coordinator.view());
      if (!options.resume_state.empty()) {
        std::istringstream is(options.resume_state);
        TrainCheckpoint meta;
        load_train_checkpoint(is, *net, *opt, meta, /*expect_world=*/0);
        global_iter = meta.global_iter;
        steps_done = meta.global_iter;
      }
      has_state = true;
    }

    auto one_iteration = [&] {
      const nn::LossResult local =
          replica.compute(*loader, global_iter / ipe, global_iter % ipe, *ctx);
      // Bucket boundaries match the fixed trainer's, so a run that never
      // resizes is bit-identical to train_sync_data_parallel.
      replica.reduce_and_step(*opt, lrs.lr(global_iter), *ctx, global_iter);
      // The step is applied: the replica's state is now "global_iter done".
      // Tracked separately from global_iter so a fault later in the
      // iteration still reports a state-consistent position.
      ++steps_done;

      const StepStats stats = replica.reduce_stats(local);
      if (diverging.first_loss < 0) {
        // Round through float so members that later receive the baseline
        // over the wire (joiners) hold the identical double.
        diverging.first_loss =
            static_cast<double>(static_cast<float>(stats.mean_loss));
      }
      // Same scalars everywhere: every member agrees.
      diverged = diverging(stats.mean_loss);

      const std::int64_t window = global_iter / ipw;
      ++global_iter;
      const bool last = global_iter >= total_iters || diverged;
      const bool boundary = global_iter % ipw == 0 || last;
      if (gc->rank() == 0) {
        // Only the current rank 0 writes the windows.
        std::lock_guard lk(shared.mu);
        WindowAgg& w = shared.windows[window];
        if (w.tally.iters == 0) w.lr = lrs.lr(window * ipw);
        w.tally.add(stats.mean_loss, stats.correct, gb);
        if (boundary) {
          EpochRecord rec = w.tally.record(window, w.lr);
          close_epoch(rec, last, t, *net, dataset, *ctx);
          w.test_acc = rec.test_acc;
        }
      }
      // Keep members aligned across rank 0's evaluation.
      if (boundary) gc->barrier();
    };

    for (;;) {
      if (!active) {
        if (!coordinator.await_admission(phys)) break;
        try {
          const auto oc =
              coordinator.reconfigure(phys, has_state ? steps_done : -1);
          if (oc.role == comm::MemberRole::kMember) {
            adopt(oc.view);
            state_sync(oc);
            active = true;
          }
        } catch (const comm::RankFailure&) {
          coordinator.report_death(phys);
          teardown();
        } catch (const comm::FaultError&) {
          coordinator.report_failure(phys);
          teardown();
        } catch (const std::runtime_error&) {
          break;  // run declared failed (deadline / attempt budget)
        }
        continue;
      }

      if (diverged || global_iter >= total_iters) {
        if (gc->rank() == 0) {
          std::ostringstream os;
          save_train_checkpoint(os, *net, *opt, position(global_iter));
          std::lock_guard lk(shared.mu);
          shared.final_state = os.str();
          shared.final_weights = net->flatten_params();
          shared.iterations = global_iter;
          shared.diverged = diverged;
          shared.exposed_comm_ns = replica.exposed_comm_ns();
          shared.total_comm_ns = replica.total_comm_ns();
        }
        coordinator.finish(phys);
        break;
      }

      if (coordinator.reconfig_due(global_iter)) {
        do_reconfig();
        continue;
      }

      try {
        one_iteration();
      } catch (const comm::RankFailure&) {
        coordinator.report_death(phys);
        teardown();
        active = false;  // the slot parks as a replacement standby
      } catch (const comm::CommTimeout&) {
        coordinator.report_failure(phys);
        do_reconfig();
      } catch (const comm::ClusterAborted&) {
        // A peer observed the fault first; its report is already pending.
        do_reconfig();
      }
    }
  };

  try {
    cluster.run(rank_fn);
  } catch (...) {
    if (coordinator.run_failed()) {
      throw std::runtime_error("train_sync_elastic: " +
                               coordinator.fail_reason());
    }
    throw;
  }
  if (coordinator.run_failed()) {
    throw std::runtime_error("train_sync_elastic: " +
                             coordinator.fail_reason());
  }

  ElasticResult out;
  {
    std::lock_guard lk(shared.mu);
    out.final_weights = std::move(shared.final_weights);
    out.final_state = std::move(shared.final_state);
    out.iterations = shared.iterations;
    out.result.diverged = shared.diverged;
    for (const auto& [window, w] : shared.windows) {
      out.result.epochs.push_back(w.tally.record(window, w.lr, w.test_acc));
      out.result.iterations_run += w.tally.iters;
    }
    finalize(out.result);
  }
  out.reconfigs = coordinator.records();
  out.reconfigurations = static_cast<int>(out.reconfigs.size());
  out.traffic = cluster.total_traffic();
  out.faults = cluster.total_faults();
  persist_comm_metrics(cluster, shared.exposed_comm_ns, shared.total_comm_ns);
  return out;
}

}  // namespace minsgd::train
