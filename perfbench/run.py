#!/usr/bin/env python3
"""Training benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); checkpoint files of the fault-tolerant
workload are written there too and removed by the run.

--seed picks the generated inputs: it offsets the default dataset seed and
the default model-init seed (--data-seed / --init-seed override either).
The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics of BENCHMARK.json under --trace 0 and its
per-layer metrics under --trace 1 (a per-layer metric that does not apply
to the workload reads 0). The line before it records the run's context:
workload, seeds, nproc, live compute threads, kernel ISA, build type,
commit and test accuracy by epoch.

--self-check runs every workload on a reduced configuration (a few
iterations, no accuracy target) and checks the output against
BENCHMARK.json: metric names and units, their number, and that each
per-layer metric appears on the workloads it applies to.
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_DATA_SEED = 42
DEFAULT_INIT_SEED = 7
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

LAYER_PREFIXES = ("nn.bwd_ms.", "nn.bwd_gflops.")
# Per-layer metrics that only some workloads have: a metric listed here must
# be measured (present and non-zero) on exactly these workloads. Per-layer
# backward metrics (nn.bwd_*.L<i>-<type>) apply where the model has the layer.
APPLIES = {
    "tensor.pool_tasks_per_iter": {"alexnet-b512-lars"},
    "comm.grad_allreduce_ms": {"resnet20-dp2-overlap", "alexnet-dp2-b32-ft"},
    "comm.msg_us": {"resnet20-dp2-overlap", "alexnet-dp2-b32-ft"},
    "comm.msgs_per_iter": {"resnet20-dp2-overlap", "alexnet-dp2-b32-ft"},
    "comm.bytes_per_iter": {"resnet20-dp2-overlap", "alexnet-dp2-b32-ft"},
    "comm.exposed_ms": {"resnet20-dp2-overlap", "alexnet-dp2-b32-ft"},
    "comm.hidden_frac": {"resnet20-dp2-overlap"},
    "comm.barrier_ms": {"resnet20-dp2-overlap", "alexnet-dp2-b32-ft"},
    "train.recovery_ms": {"alexnet-dp2-b32-ft"},
    "train.restarts": {"alexnet-dp2-b32-ft"},
    "train.checkpoints": {"alexnet-dp2-b32-ft"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench"))


def build():
    """Configures and builds the perfbench binary; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        # Build chatter goes to stderr: stdout carries only the result.
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def commit():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if res.returncode == 0:
            return res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_binary(binary, workload, seconds, trace, data_seed, init_seed,
               extra=()):
    cmd = [binary, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--data-seed", str(data_seed),
           "--init-seed", str(init_seed), "--work-dir", build_dir(), *extra]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=RUN_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError("perfbench exited with code %d" % res.returncode)
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no report")
    return json.loads(lines[-1])


def result_line(report, names):
    """The result line: exactly the declared metrics, in order."""
    metrics = {}
    for name, unit in names:
        m = report["metrics"].get(name)
        metrics[name] = m if m is not None else {"value": 0.0, "unit": unit}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def self_check(spec):
    """Reduced-size run of every workload; returns a list of problems."""
    problems = []
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if len(e2e) > 16 or len(per_layer) > 128:
        problems.append("too many metrics: %d end-to-end, %d per-layer"
                        % (len(e2e), len(per_layer)))
    declared = {}
    for name, unit in e2e + per_layer:
        if not NAME_RE.match(name) or not unit:
            problems.append("bad metric name or unit: %r %r" % (name, unit))
        if name in declared:
            problems.append("metric declared twice: " + name)
        declared[name] = unit
    layer_seen = set()
    binary = build()
    for w in spec["workloads"]:
        wl = w["name"]
        for trace, names in ((0, e2e), (1, per_layer)):
            rep = run_binary(binary, wl, 1, trace, DEFAULT_DATA_SEED,
                             DEFAULT_INIT_SEED, ["--smoke"])
            got = rep["metrics"]
            if not rep["correct"]:
                problems.append("%s trace %d: a correctness check failed"
                                % (wl, trace))
            for name, m in got.items():
                if name not in declared:
                    problems.append("%s: undeclared metric %s" % (wl, name))
                elif m["unit"] != declared[name]:
                    problems.append("%s: %s unit %s, declared %s"
                                    % (wl, name, m["unit"], declared[name]))
            for name, _ in names:
                if name.startswith(LAYER_PREFIXES):
                    if name in got:
                        layer_seen.add(name)
                    continue
                applies = wl in APPLIES.get(name, {wl})
                value = got.get(name, {}).get("value", 0.0)
                if applies and (name not in got or
                                (name in APPLIES and value == 0)):
                    problems.append("%s: %s not measured" % (wl, name))
                if not applies and value != 0:
                    problems.append("%s: %s measured where it does not apply"
                                    % (wl, name))
            log("self-check: %s trace %d ok" % (wl, trace))
    for name, _ in per_layer:
        if name.startswith(LAYER_PREFIXES) and name not in layer_seen:
            problems.append("layer metric %s appears on no workload" % name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--data-seed", type=int)
    ap.add_argument("--init-seed", type=int)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    spec = load_spec()
    if args.self_check:
        problems = self_check(spec)
        for p in problems:
            log("self-check: " + p)
        print("self-check: %s" % ("FAILED" if problems else "ok"))
        return 1 if problems else 0

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("unknown workload %r (have: %s)" % (args.workload, ", ".join(names)))
        return 2
    data_seed = (args.data_seed if args.data_seed is not None
                 else DEFAULT_DATA_SEED + args.seed)
    init_seed = (args.init_seed if args.init_seed is not None
                 else DEFAULT_INIT_SEED + args.seed)
    binary = build()
    report = run_binary(binary, args.workload, args.seconds, args.trace,
                        data_seed, init_seed)
    key = "per_layer" if args.trace else "end_to_end"
    declared = [(m["name"], m["unit"]) for m in spec[key]]
    if args.trace == 0:
        missing = [n for n, _ in declared if n not in report["metrics"]]
        if missing:
            raise RuntimeError("report lacks " + ", ".join(missing))
    context = {k: v for k, v in report.items() if k != "metrics"}
    context["commit"] = commit()
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result_line(report, declared)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        log("perfbench: " + str(e))
        sys.exit(1)
