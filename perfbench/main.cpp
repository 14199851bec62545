// perfbench: end-to-end and per-layer training benchmark.
//
//   perfbench --workload <name> --seconds <s> --trace <0|1>
//             [--data-seed <n>] [--init-seed <n>] [--work-dir <dir>] [--smoke]
//
// --trace 0 (untraced pass): a few set-up runs that stop after the first
// optimizer step, then whole training runs through the trainer entry point
// until --seconds is spent (at least one). Step times come from an
// optimizer decorator passed in through the trainer's optimizer factory.
// --trace 1 (traced pass): one untraced run, then the same training rebuilt
// from public calls with a span around each call into a module; it must end
// on the untraced run's weights and traffic exactly.
//
// Prints one JSON report line. --smoke shrinks every workload to a few
// iterations and drops the accuracy target, for checking the output shape.
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/postmortem.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "traced.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  double seconds = 10.0;
  int trace = 0;
  Seeds seeds{42, 7};
  std::string work_dir = ".";
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seconds") a.seconds = std::atof(v);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--data-seed") a.seeds.data = std::strtoull(v, nullptr, 10);
    else if (k == "--init-seed") a.seeds.init = std::strtoull(v, nullptr, 10);
    else if (k == "--work-dir") a.work_dir = v;
    else usage(("unknown flag " + k).c_str());
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// A few iterations of the same configuration; the crash moves with it.
Workload smoke(Workload w) {
  w.epochs = 3;
  w.train_size = 4 * w.global_batch;
  w.target_epoch = 1;
  w.target_acc = 0.0;
  if (w.crash_iter > 0) {
    w.checkpoint_every = 2;
    w.crash_iter = 4;
  }
  return w;
}

class Report {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    if (!check(std::isfinite(value), name + " is not finite")) value = 0.0;
    if (!metrics_.empty()) metrics_ += ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    metrics_ += "\"" + name + "\":{\"value\":" + buf + ",\"unit\":\"" + unit +
                "\"}";
  }
  /// Records one check; a failure is printed to stderr.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
      ok_ = false;
    }
    return ok;
  }
  /// Counts one checked run.
  void run(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Test accuracy by epoch of the first training run, for the record.
  void trajectory(const std::vector<double>& acc) {
    if (have_trajectory_) return;
    have_trajectory_ = true;
    for (const double v : acc) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", v);
      if (!trajectory_.empty()) trajectory_ += ',';
      trajectory_ += buf;
    }
  }
  void print(const Args& a, int threads) const {
    std::printf(
        "{\"workload\":\"%s\",\"trace\":%d,\"data_seed\":%llu,"
        "\"init_seed\":%llu,\"correct\":%s,\"attempted\":%d,\"failed\":%d,"
        "\"env\":{\"nproc\":%u,\"threads\":%d,\"isa\":\"%s\","
        "\"build_type\":\"%s\"},\"epoch_acc\":[%s],\"metrics\":{%s}}\n",
        a.workload.c_str(), a.trace,
        static_cast<unsigned long long>(a.seeds.data),
        static_cast<unsigned long long>(a.seeds.init),
        ok_ && failed_ == 0 ? "true" : "false", attempted_, failed_,
        std::thread::hardware_concurrency(), threads,
        minsgd::kernels::to_string(minsgd::kernels::active()),
        PERFBENCH_BUILD_TYPE, trajectory_.c_str(), metrics_.c_str());
  }

 private:
  std::string metrics_;
  std::string trajectory_;
  bool have_trajectory_ = false;
  bool ok_ = true;
  int attempted_ = 0;
  int failed_ = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Step-to-step gaps (ms) of rank 0 within one epoch of one attempt, and
/// the lead from the previous step's return to the next step's entry.
struct StepTimes {
  std::vector<double> gaps, leads, step;
};

StepTimes step_times(const RunResult& r, std::int64_t iters_per_epoch) {
  StepTimes t;
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    const auto& s = r.steps[i];
    t.step.push_back(ms_between(s.entry, s.ret));
    if (i == 0) continue;
    const auto& p = r.steps[i - 1];
    if (p.attempt != s.attempt || p.iter + 1 != s.iter ||
        p.iter / iters_per_epoch != s.iter / iters_per_epoch) {
      continue;
    }
    t.gaps.push_back(ms_between(p.ret, s.ret));
    t.leads.push_back(ms_between(p.ret, s.entry));
  }
  return t;
}

/// Trainer entry to the end of epoch `e`. The trainers expose no epoch
/// hook, so the end of an epoch the run went past is read off the next
/// epoch's first step: its entry minus the median in-epoch lead (load,
/// forward, backward and allreduce of one iteration). Otherwise the run
/// ended with epoch `e`, at the trainer's return.
double time_to_epoch_s(const RunResult& r, std::int64_t e,
                       std::int64_t iters_per_epoch) {
  const std::int64_t first = (e + 1) * iters_per_epoch;
  for (const auto& s : r.steps) {
    if (s.iter == first) {
      const double lead = median(step_times(r, iters_per_epoch).leads);
      return (ms_between(r.trainer_entry, s.entry) - lead) / 1e3;
    }
  }
  return ms_between(r.trainer_entry, r.trainer_return) / 1e3;
}

std::int64_t expected_checkpoints(const Workload& wl, std::int64_t iterations) {
  return wl.checkpoint_every > 0 ? iterations / wl.checkpoint_every : 0;
}

/// The run-level checks every whole training run must pass.
bool check_run(Report& rep, const Workload& wl, const RunResult& r,
               unsigned nproc) {
  bool ok = true;
  const double final_acc = r.epoch_acc.empty() ? 0.0 : r.epoch_acc.back();
  ok &= rep.check(!r.diverged, wl.name + ": training diverged");
  ok &= rep.check(static_cast<std::int64_t>(r.epoch_acc.size()) == wl.epochs,
                  wl.name + ": missing epoch records");
  ok &= rep.check(final_acc >= wl.target_acc &&
                      r.epoch_acc.size() > static_cast<std::size_t>(wl.target_epoch) &&
                      r.epoch_acc[wl.target_epoch] >= wl.target_acc,
                  wl.name + ": test accuracy below target");
  ok &= rep.check(r.threads <= static_cast<int>(nproc),
                  wl.name + ": more live compute threads than nproc");
  if (wl.crash_iter > 0) {
    ok &= rep.check(r.restarts == 1, wl.name + ": expected exactly 1 restart");
  }
  ok &= rep.check(r.checkpoints == expected_checkpoints(wl, r.iterations),
                  wl.name + ": unexpected checkpoint count");
  ok &= rep.check(!r.checkpoint_left, wl.name + ": checkpoint file left behind");
  return ok;
}

void untraced_pass(const Args& a, const Workload& wl, Report& rep,
                   int& threads) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string ckpt = a.work_dir + "/perfbench-" + wl.name + ".ckpt";
  const std::int64_t ipe = wl.train_size / wl.global_batch;
  const auto t0 = Clock::now();

  std::vector<double> gaps, tta;
  double test_acc = 0.0;
  std::uint64_t weights = 0;
  minsgd::comm::TrafficStats traffic;
  int full_runs = 0;
  auto full_run = [&] {
    const RunResult r = run_untraced(wl, a.seeds, ckpt, /*setup_only=*/false);
    threads = std::max(threads, r.threads);
    bool ok = check_run(rep, wl, r, nproc);
    rep.trajectory(r.epoch_acc);
    const StepTimes t = step_times(r, ipe);
    gaps.insert(gaps.end(), t.gaps.begin(), t.gaps.end());
    tta.push_back(time_to_epoch_s(r, wl.target_epoch, ipe));
    const std::uint64_t h = fnv1a(r.final_weights);
    if (full_runs++ == 0) {
      test_acc = r.epoch_acc.empty() ? 0.0 : r.epoch_acc.back();
      weights = h;
      traffic = r.traffic;
    }
    // Same seeds, same bits: every repeat must train the identical model.
    ok &= rep.check(h == weights, wl.name + ": repeat trained other weights");
    ok &= rep.check(r.traffic.messages == traffic.messages &&
                        r.traffic.bytes == traffic.bytes,
                    wl.name + ": repeat sent " +
                        std::to_string(r.traffic.messages) + " messages, " +
                        std::to_string(r.traffic.bytes) + " bytes; first run " +
                        std::to_string(traffic.messages) + ", " +
                        std::to_string(traffic.bytes));
    rep.run(ok);
  };

  // The process's peak RSS is taken over its first training run, as a user
  // running the workload once would see it.
  full_run();
  const double rss_mb = peak_rss_mb();

  // Set-up is one sample per run, so take many: at least five, and for a
  // tenth of the measuring time.
  std::vector<double> setup_s;
  const auto s0 = Clock::now();
  for (int i = 0; i < 5 ||
                  ms_between(s0, Clock::now()) < 100.0 * a.seconds;
       ++i) {
    const RunResult r = run_untraced(wl, a.seeds, ckpt, /*setup_only=*/true);
    setup_s.push_back(ms_between(r.start, r.steps.front().ret) / 1e3);
    threads = std::max(threads, r.threads);
    rep.run(rep.check(r.threads <= static_cast<int>(nproc),
                      wl.name + ": more live compute threads than nproc"));
  }

  // More whole runs while the next one still fits in --seconds.
  const double run_s = ms_between(t0, s0) / 1e3;
  while (ms_between(t0, Clock::now()) / 1e3 + run_s <= a.seconds) full_run();

  rep.metric("img_per_s",
             static_cast<double>(wl.global_batch) / (median(gaps) / 1e3),
             "img/s");
  rep.metric("time_to_acc_s", median(tta), "s");
  rep.metric("test_acc", test_acc, "fraction");
  rep.metric("setup_s", median(setup_s), "s");
  rep.metric("peak_rss_mb", rss_mb, "MB");
}

void traced_pass(const Args& a, const Workload& wl, Report& rep, int& threads) {
  const unsigned nproc = std::thread::hardware_concurrency();
  const std::string ckpt = a.work_dir + "/perfbench-" + wl.name + ".ckpt";
  const std::int64_t ipe = wl.train_size / wl.global_batch;

  const RunResult u = run_untraced(wl, a.seeds, ckpt, /*setup_only=*/false);
  threads = u.threads;
  rep.run(check_run(rep, wl, u, nproc));
  rep.trajectory(u.epoch_acc);
  const StepTimes ut = step_times(u, ipe);

  const TracedResult t = run_traced(wl, a.seeds, ckpt);
  bool ok = true;
  ok &= rep.check(fnv1a(t.final_weights) == fnv1a(u.final_weights),
                  wl.name + ": traced weights differ from the untraced run");
  ok &= rep.check(t.traffic.messages == u.traffic.messages &&
                      t.traffic.bytes == u.traffic.bytes,
                  wl.name + ": traced traffic differs from the untraced run");
  ok &= rep.check(t.epoch_acc == u.epoch_acc && t.restarts == u.restarts &&
                      t.checkpoints == u.checkpoints,
                  wl.name + ": traced trajectory differs from the untraced run");
  ok &= rep.check(t.checkpoint_round_trip,
                  wl.name + ": checkpoint reload changed the weights");
  rep.run(ok);

  auto span = [&](const char* name) {
    const auto it = t.spans.find(name);
    return it == t.spans.end() ? 0.0 : median(it->second);
  };
  const double iters = static_cast<double>(std::max<std::int64_t>(u.iterations, 1));
  const double gb = static_cast<double>(wl.global_batch);

  rep.metric("data.load_ms", span("data.load"), "ms");
  const double fwd = span("nn.fwd"), bwd = span("nn.bwd");
  rep.metric("nn.fwd_ms", fwd, "ms");
  rep.metric("nn.bwd_ms", bwd, "ms");
  rep.metric("nn.bwd_over_fwd", fwd > 0 ? bwd / fwd : 0.0, "ratio");
  for (const auto& l : t.layers) {
    const double ms = median(l.ms);
    rep.metric("nn.bwd_ms." + l.name, ms, "ms");
    if (l.flops > 0) {
      rep.metric("nn.bwd_gflops." + l.name, 2.0 * l.flops / (ms / 1e3) / 1e9,
                 "GFLOP/s");
    }
  }
  rep.metric("nn.eval_ms", span("nn.eval"), "ms");
  rep.metric("tensor.sgemm_gflops", sgemm_gflops(0.3), "GFLOP/s");
  rep.metric("tensor.pool_tasks_per_iter", median(t.pool_tasks), "count");

  const double grad_ms = span("comm.grad_allreduce");
  const double grad_msgs = median(t.grad_msgs);
  rep.metric("comm.grad_allreduce_ms", grad_ms, "ms");
  rep.metric("comm.msg_us", grad_msgs > 0 ? grad_ms * 1e3 / grad_msgs : 0.0,
             "us");
  rep.metric("comm.msgs_per_iter", static_cast<double>(u.traffic.messages) / iters,
             "count");
  rep.metric("comm.bytes_per_iter", static_cast<double>(u.traffic.bytes) / iters,
             "B");
  // The sync trainer reports exposed vs total collective time; the other
  // distributed trainer reduces serially, so all of it is exposed.
  double exposed_ms = grad_ms, hidden = 0.0;
  if (u.total_comm_ns > 0) {
    exposed_ms = static_cast<double>(u.exposed_comm_ns) / 1e6 / iters;
    hidden = 1.0 - static_cast<double>(u.exposed_comm_ns) /
                       static_cast<double>(u.total_comm_ns);
  }
  rep.metric("comm.exposed_ms", exposed_ms, "ms");
  rep.metric("comm.hidden_frac", hidden, "fraction");
  rep.metric("comm.barrier_ms", span("comm.barrier"), "ms");
  rep.metric("optim.step_ms", median(ut.step), "ms");

  rep.metric("train.iter_ms_p50", quantile(ut.gaps, 0.5), "ms");
  rep.metric("train.iter_ms_p95", quantile(ut.gaps, 0.95), "ms");
  rep.metric("train.iter_n", static_cast<double>(ut.gaps.size()), "count");
  rep.metric("train.ckpt_save_ms", span("train.ckpt_save"), "ms");
  rep.metric("train.ckpt_load_ms", span("train.ckpt_load"), "ms");
  rep.metric("train.ckpt_bytes", static_cast<double>(t.checkpoint_bytes), "B");
  double recovery_ms = 0.0;
  for (std::size_t i = 1; i < u.steps.size(); ++i) {
    if (u.steps[i].attempt != u.steps[i - 1].attempt) {
      recovery_ms = ms_between(u.steps[i - 1].ret, u.steps[i].ret);
    }
  }
  rep.metric("train.recovery_ms", recovery_ms, "ms");
  rep.metric("train.restarts", u.restarts, "count");
  rep.metric("train.checkpoints", static_cast<double>(u.checkpoints), "count");

  const double img_untraced = gb / (median(ut.gaps) / 1e3);
  const double img_traced = gb / (span("train.step_gap") / 1e3);
  rep.metric("obs.trace_overhead_pct",
             (img_untraced - img_traced) / img_untraced * 100.0, "%");
}

}  // namespace

int main(int argc, char** argv) {
  // glibc gives new threads their own malloc heaps on contention, and how
  // many of them a run touches varies: peak RSS of identical resnet runs
  // jumped between 228, 253 and 278 MB. Two heaps make it repeat.
  mallopt(M_ARENA_MAX, 2);
  const Args a = parse(argc, argv);
  const Workload* found = find_workload(a.workload);
  if (!found) usage(("unknown workload '" + a.workload + "'").c_str());
  const Workload wl = a.smoke ? smoke(*found) : *found;
  // Set-up runs end by aborting the cluster; keep its black-box dump out of
  // the working directory.
  minsgd::obs::set_postmortem_path("");

  Report rep;
  int threads = 0;
  try {
    if (a.trace == 0) {
      untraced_pass(a, wl, rep, threads);
    } else {
      traced_pass(a, wl, rep, threads);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", wl.name.c_str(), e.what());
    return 1;
  }
  rep.print(a, threads);
  return 0;
}
