#!/usr/bin/env python3
"""End-to-end benchmark of the pef sweep system.

    python3 perfbench/run.py --workload models-mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

Run it from the root of a checkout.  It builds the repository's pef_sweep,
pef_serve and pef_client plus its own helper (perfbench/pef_bench.cpp) under
.bench_build/, makes the workload's inputs from --seed, sends requests in a
closed loop for --seconds, checks every response byte for byte against a
reference computed in process by a 1-thread SweepRunner, prints each metric
with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the separate traced
replay and reports the per-layer ones.  Names, units and bounds are in
BENCHMARK.json; perfbench/README.md says which layer metric should move
which end-to-end metric.  Each run also writes its result, stamped with a
hardware and build fingerprint, to .bench_build/results/; --compare prints
two such results side by side and warns when their fingerprints differ.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
BIN = BUILD / "pef"
PEF_BENCH = BUILD / "perfbench" / "pef_bench"

SWEEP_THREADS = 4        # pef_sweep --threads
SETUP_REPEATS = 3        # set-ups per run; setup_s is their median
# Untimed load between set-up and the window: the first seconds of load
# after idle ran up to 3x slower on a 4-vCPU KVM guest and would otherwise
# land in the first samples.
WARMUP_S = 2.0
SERVE_WORKERS = 2        # pef_serve --workers
SERVE_THREADS = 2        # pef_serve --threads
SERVE_CACHE_BYTES = 8 << 20  # keeps the daemon's memory independent of speed
HOT_SET = 4              # specs resubmitted as cache hits
ALL_MODELS = ["fsync", "ssync", "async"]
# Per-layer metrics only the service workload exercises (zero elsewhere).
SERVE_LAYERS = [
    "serve.ack_s", "serve.first_event_s", "serve.result_transfer_s",
    "serve.cache_hits", "serve.cache_misses", "serve.coalesced",
    "serve.cells_computed", "serve.rejected", "serve.hit_latency_p50_s",
    "serve.miss_latency_p50_s", "self.serve_s",
]


class BenchError(Exception):
    """A run that cannot produce a result."""


# ---------------------------------------------------------------------------
# Workload inputs: the seed picks each grid's seeds list (and, for the
# service, the request order); the programs see only the spec text.

def sweep_spec(algorithms, adversaries, models, ring_sizes, robot_counts,
               seeds, horizon, max_batch, fast_forward=False):
    spec = {
        "algorithms": algorithms,
        "adversaries": [{"kind": kind, "params": params}
                        for kind, params in adversaries],
        "models": models,
        "ring_sizes": ring_sizes,
        "robot_counts": robot_counts,
        "seeds": seeds,
        "activation_p": 0.5,
        "horizon": horizon,
        "horizon_per_node": 200,
        "random_placements": True,
        "batch_seeds": True,
        "max_batch": max_batch,
    }
    if fast_forward:
        spec["fast_forward"] = True
    return spec


def draw_seeds(rng, count, low=1, high=1 << 31):
    return sorted(rng.sample(range(low, high), count))


def models_mc(rng):
    """examples/specs/sweep_models.json with seeded seeds."""
    return sweep_spec(
        ["pef3+"],
        [("bernoulli", {"p": 0.7}), ("t-interval", {"interval": 4}),
         ("greedy-blocker", {"max_absence": 6})],
        ALL_MODELS, [16, 64], [3, 8], draw_seeds(rng, 8), 0, 64)


def wide_batch(rng):
    return sweep_spec(
        ["pef3+", "keep-direction"],
        [("static", {}), ("t-interval", {"interval": 4})],
        ALL_MODELS, [256, 1024], [16], draw_seeds(rng, 256), 4000, 0)


def longhorizon_ff(rng):
    # 32 seeds, not 8: a request waits for the slowest lane of its heaviest
    # n=256 batch, and with 8 lanes that moved by 11% from seed list to seed
    # list (6.5% with 32).
    return sweep_spec(
        ["pef3+", "keep-direction", "bounce"],
        [("static", {}), ("periodic", {"period": 5, "duty": 3}),
         ("eventual-missing", {})],
        ["fsync"], [16, 64, 256], [3, 5], draw_seeds(rng, 32), 10 ** 7, 64,
        fast_forward=True)


def serve_spec(seeds):
    """A 48-cell spec shaped like examples/specs/sweep_small.json."""
    return sweep_spec(
        ["pef3+", "bounce"], [("static", {}), ("bernoulli", {"p": 0.5})],
        ALL_MODELS, [6, 10], [3], seeds, 400, 64)


SWEEP_WORKLOADS = {
    "models-mc": models_mc,
    "wide-batch": wide_batch,
    "longhorizon-ff": longhorizon_ff,
}
WORKLOADS = list(SWEEP_WORKLOADS) + ["serve-repeat"]


def covered_rounds(spec):
    """Sum of cell horizons: the rounds a spec's result describes."""
    per_n = [spec["horizon"] or spec["horizon_per_node"] * n
             for n in spec["ring_sizes"] for k in spec["robot_counts"]
             if 0 < k < n]
    return (sum(per_n) * len(spec["algorithms"]) * len(spec["adversaries"])
            * len(spec["models"]) * len(spec["seeds"]))


# ---------------------------------------------------------------------------
# Statistics

def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With n sorted samples that is the sample
    at index n - 11, the (100 * (n - 10) / n)-th percentile.  Below eleven
    samples no such percentile exists and the minimum is returned as p0.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) < 11:
        return ordered[0], 0.0
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def latency_metrics(latencies, window_s, rounds_per_request):
    """End-to-end metrics, and the tail as information: on serve-repeat the
    tail is about p99.9, and there it moved by 60% (interquartile range over
    median) from run to run, so it cannot be a gated metric."""
    tail, percentile = tail_percentile(latencies)
    return {
        "latency_p50_s": statistics.median(latencies),
        "rounds_per_s": rounds_per_request * len(latencies) / sum(latencies),
        "requests_per_s": len(latencies) / window_s,
    }, {"latency_tail_s": tail, "tail_percentile": percentile,
        "samples": len(latencies)}


# ---------------------------------------------------------------------------
# Processes

def build():
    """Configure and build the programs under test and pef_bench."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository "
                         "(run from its root)")
    BUILD.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    helper = BUILD / "perfbench"
    steps = []
    if not (BIN / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BIN)])
    steps.append(["cmake", "--build", str(BIN), "--target", "pef",
                  "pef_sweep", "pef_serve", "pef_client", "-j", jobs])
    if not (helper / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(helper),
                      f"-DPEF_BUILD_DIR={BIN}"])
    steps.append(["cmake", "--build", str(helper), "-j", jobs])
    log_path = BUILD / "build.log"
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed: " + " ".join(step) + "\n"
                                 + "\n".join(tail))


def check_output(cmd):
    done = subprocess.run([str(part) for part in cmd], cwd=ROOT,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"{Path(str(cmd[0])).name} {cmd[1]} failed "
                         f"({done.returncode}): {done.stderr.strip()}")
    return done.stdout


def write_reference(spec_path, out_path):
    check_output([PEF_BENCH, "reference", "--spec", spec_path,
                  "--out", out_path])
    return out_path.read_bytes() + b"\n"  # the tools end output with \n


def timed_child(cmd, env=None):
    """Run cmd to completion; returns (seconds, exit code, max RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([str(part) for part in cmd], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def response_ok(code, out_path, expected):
    """Byte-for-byte check of one response; consumes the output file."""
    ok = code == 0 and out_path.is_file() and out_path.read_bytes() == expected
    out_path.unlink(missing_ok=True)
    return ok


def sweep_request(spec_path, out_path, expected, env=None):
    """One pef_sweep request: (latency s, peak RSS MB, output correct)."""
    seconds, code, rss_mb = timed_child(
        [BIN / "pef_sweep", "--threads", SWEEP_THREADS, "--spec", spec_path,
         "--out", out_path], env)
    return seconds, rss_mb, response_ok(code, out_path, expected)


class Daemon:
    """One pef_serve process; stopped (and waited for) on exit."""

    def __init__(self, run_dir, tag):
        # Relative to the checkout root, to stay within the socket path limit.
        self.socket = os.path.relpath(run_dir / f"serve{tag}.sock", ROOT)
        self.proc = subprocess.Popen(
            [str(BIN / "pef_serve"), "--socket", self.socket,
             "--workers", str(SERVE_WORKERS), "--threads", str(SERVE_THREADS),
             "--cache-dir", str(run_dir / f"cache{tag}"),
             "--cache-bytes", str(SERVE_CACHE_BYTES)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def wait_ready(self, timeout_s=10.0):
        deadline = time.perf_counter() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise BenchError("pef_serve exited while starting")
            with socket.socket(socket.AF_UNIX) as probe:
                try:
                    probe.connect(self.socket)
                    return
                except OSError:
                    pass
            if time.perf_counter() > deadline:
                raise BenchError("pef_serve did not listen in time")
            time.sleep(0.002)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for pef_serve")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


# ---------------------------------------------------------------------------
# Workloads

def write_spec(path, spec):
    path.write_text(json.dumps(spec, indent=1) + "\n")
    return path


def replay_metrics(spec_path, threads, run_dir):
    """The traced in-process replay (pef_bench replay) of one spec."""
    out = check_output([PEF_BENCH, "replay", "--spec", spec_path,
                        "--threads", threads, "--cache-dir", run_dir / "rc",
                        "--spans", BUILD / "results" / "spans-replay.json"])
    return json.loads(out.strip().splitlines()[-1])


def run_sweep_workload(name, seed, seconds, trace, run_dir):
    spec = SWEEP_WORKLOADS[name](random.Random(seed))
    spec_path = write_spec(run_dir / "spec.json", spec)
    if trace:
        layers = replay_metrics(spec_path, SWEEP_THREADS, run_dir)
        identical = layers.pop("replay.identical") == 1
        cells = int(layers.pop("replay.cells"))
        layers.update((name, 0.0) for name in SERVE_LAYERS)
        return {"correct": identical, "attempted": cells,
                "failed": 0 if identical else cells, "metrics": layers,
                "info": {}}

    expected = write_reference(spec_path, run_dir / "reference.json")
    out_path = run_dir / "out.json"
    start = time.perf_counter()
    setup = [sweep_request(spec_path, out_path, expected)
             for _ in range(SETUP_REPEATS)]
    warmup = []  # set-up counts towards the warm-up
    while time.perf_counter() - start < WARMUP_S:
        warmup.append(sweep_request(spec_path, out_path, expected))

    timed = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        timed.append(sweep_request(spec_path, out_path, expected))
    window_s = time.perf_counter() - start

    metrics, info = latency_metrics([s for s, _, _ in timed], window_s,
                                    covered_rounds(spec))
    metrics["setup_s"] = statistics.median(s for s, _, _ in setup)
    metrics["peak_rss_mb"] = max(rss for _, rss, _ in timed)
    checked = setup + warmup + timed
    failed = sum(not ok for _, _, ok in checked)
    return {"correct": failed == 0, "attempted": len(checked),
            "failed": failed, "metrics": metrics, "info": info}


def serve_inputs(seed, run_dir):
    """Hot specs, the fresh-spec template, warm-up specs and the fresh base."""
    rng = random.Random(seed)
    hot = [write_spec(run_dir / f"hot{h}.json",
                      serve_spec(draw_seeds(rng, 2, 1, 1 << 30)))
           for h in range(HOT_SET)]
    fresh = run_dir / "fresh.json"
    fresh.write_text(json.dumps(serve_spec(["@SEEDS@"]))
                     .replace('"@SEEDS@"', "@SEEDS@") + "\n")
    warm_base = rng.randrange(1 << 41, 1 << 42)
    warm = [write_spec(run_dir / f"warm{i}.json",
                       serve_spec([warm_base + 2 * i, warm_base + 2 * i + 1]))
            for i in range(SETUP_REPEATS)]
    fresh_base = rng.randrange(1 << 31, 1 << 40)
    return hot, fresh, warm, fresh_base


def serve_load(daemon, inputs, load_index, seed, seconds, trace, run_dir):
    """One closed-loop pef_bench serve-load call; every call gets its own
    range of fresh seeds so its fresh specs are misses."""
    hot, fresh, _, fresh_base = inputs
    out = run_dir / f"load{load_index}.json"
    cmd = [PEF_BENCH, "serve-load", "--socket", daemon.socket,
           "--hot", ",".join(str(path) for path in hot), "--fresh", fresh,
           "--fresh-base", fresh_base + (load_index << 30),
           "--seconds", seconds, "--seed", seed, "--trace", int(trace),
           "--out", out]
    if trace:
        cmd += ["--spans", BUILD / "results" / "spans-serve.json"]
    check_output(cmd)
    load = json.loads(out.read_text())
    if not load["hit_latencies"] or not load["miss_latencies"]:
        raise BenchError("serve-load completed too few requests: "
                         + load["error"])
    # The hot set's warming submissions are checked too.
    load["attempted"] += len(hot)
    load["failed"] += load["setup_failures"]
    return load


def run_serve_workload(seed, seconds, trace, run_dir):
    inputs = serve_inputs(seed, run_dir)
    warm = inputs[2]
    expected = [write_reference(path, run_dir / f"{path.stem}.ref")
                for path in warm]
    out_path = run_dir / "out.json"
    setup_s, setup_failed = [], 0
    daemon = None
    try:
        # Set-up: launch the daemon on an empty cache and get the result of
        # one warm-up request through pef_client.
        for i in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            start = time.perf_counter()
            daemon = Daemon(run_dir, i)
            daemon.wait_ready()
            _, code, _ = timed_child([BIN / "pef_client", "--socket",
                                      daemon.socket, "--spec", warm[i],
                                      "--out", out_path])
            setup_s.append(time.perf_counter() - start)
            setup_failed += not response_ok(code, out_path, expected[i])

        loads = [serve_load(daemon, inputs, 0, seed, WARMUP_S, False,
                            run_dir)]
        if trace:
            # Untraced then traced halves; their difference is the tracing
            # overhead.
            loads.append(serve_load(daemon, inputs, 1, seed, seconds / 2,
                                    False, run_dir))
            loads.append(serve_load(daemon, inputs, 2, seed, seconds / 2,
                                    True, run_dir))
        else:
            loads.append(serve_load(daemon, inputs, 1, seed, seconds, False,
                                    run_dir))
            peak_rss_mb = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()

    attempted = SETUP_REPEATS + sum(load["attempted"] for load in loads)
    failed = setup_failed + sum(load["failed"] for load in loads)
    timed = loads[1]
    if trace:
        traced = loads[2]
        fresh_base = inputs[3]
        fresh_spec = write_spec(run_dir / "fresh0.json",
                                serve_spec([fresh_base, fresh_base + 1]))
        layers = replay_metrics(fresh_spec, SERVE_THREADS, run_dir)
        identical = layers.pop("replay.identical") == 1
        layers.pop("replay.cells")
        layers.update(traced["layers"])
        layers["trace.spans"] += traced["layers"]["trace.spans"]
        plain_p50 = statistics.median(timed["hit_latencies"]
                                      + timed["miss_latencies"])
        traced_p50 = statistics.median(traced["hit_latencies"]
                                       + traced["miss_latencies"])
        layers["trace.overhead_s"] = traced_p50 - plain_p50
        layers["trace.overhead_frac"] = (traced_p50 - plain_p50) / plain_p50
        layers["serve.hit_latency_p50_s"] = statistics.median(
            timed["hit_latencies"])
        layers["serve.miss_latency_p50_s"] = statistics.median(
            timed["miss_latencies"])
        return {"correct": identical and failed == 0, "attempted": attempted,
                "failed": failed, "metrics": layers, "info": {}}

    metrics, info = latency_metrics(
        timed["hit_latencies"] + timed["miss_latencies"], timed["window_s"],
        covered_rounds(serve_spec([0, 1])))
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["peak_rss_mb"] = peak_rss_mb
    info["hit_latency_p50_s"] = statistics.median(timed["hit_latencies"])
    info["miss_latency_p50_s"] = statistics.median(timed["miss_latencies"])
    if timed["error"]:
        info["first_error"] = timed["error"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


# ---------------------------------------------------------------------------
# Fingerprint, reporting, comparison

def fingerprint():
    stamp = json.loads(check_output([PEF_BENCH, "fingerprint"]))
    stamp["batch_isa_env"] = os.environ.get("PEF_BATCH_ISA", "")
    for line in (BIN / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            stamp["build_type"] = line.split("=", 1)[1]
    stamp["git_sha"] = "none"
    git = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                          "--show-toplevel", "HEAD"],
                         capture_output=True, text=True)
    lines = git.stdout.split()
    if git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT:
        stamp["git_sha"] = lines[1]
    # A checkout without .git still has a source identity.
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        p for top in ("src", "tools") for p in (ROOT / top).rglob("*")
        if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    stamp["source_sha256"] = digest.hexdigest()
    return stamp


def load_manifest():
    for path in (ROOT / "BENCHMARK.json", HERE.parent / "BENCHMARK.json"):
        if path.is_file():
            return json.loads(path.read_text())
    raise BenchError("BENCHMARK.json not found")


def report(args, result, manifest, stamp):
    declared = manifest["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in result["metrics"]:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": result["metrics"][name],
                         "unit": metric["unit"]}
        print(f"{name:<44} {result['metrics'][name]:>16.6g} {metric['unit']}")
    for key, value in result["info"].items():
        print(f"# {key}: {value}")
    print("# fingerprint: " + json.dumps(stamp, sort_keys=True))
    line = {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}
    saved = dict(line, workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, fingerprint=stamp,
                 info=result["info"])
    results = BUILD / "results"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps(line), flush=True)


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    fa, fb = a.get("fingerprint", {}), b.get("fingerprint", {})
    differ = sorted(k for k in set(fa) | set(fb) if fa.get(k) != fb.get(k))
    if differ:
        print("WARNING: fingerprints differ in " + ", ".join(differ) + ":",
              file=sys.stderr)
        for key in differ:
            print(f"  {key}: {fa.get(key)!r} vs {fb.get(key)!r}",
                  file=sys.stderr)
    for name in a["metrics"]:
        if name not in b["metrics"]:
            continue
        va = a["metrics"][name]["value"]
        vb = b["metrics"][name]["value"]
        ratio = f"{vb / va:8.3f}x" if va else "       -"
        print(f"{name:<44} {va:>14.6g} {vb:>14.6g} {ratio} "
              f"{a['metrics'][name]['unit']}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    try:
        manifest = load_manifest()
        build()
        (BUILD / "results").mkdir(exist_ok=True)
        stamp = fingerprint()
        run_dir = BUILD / "runs" / f"{args.workload}-{os.getpid()}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        try:
            if args.workload == "serve-repeat":
                result = run_serve_workload(args.seed, args.seconds,
                                            args.trace, run_dir)
            else:
                result = run_sweep_workload(args.workload, args.seed,
                                            args.seconds, args.trace, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        report(args, result, manifest, stamp)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
