#!/usr/bin/env python3
"""End-to-end benchmark of the profisched pipeline.

Drives the real `profisched` binary through one workload and prints its
metrics; see perfbench/README.md for the workloads, the metrics and how to
read a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-pins --workload NAME --scenarios N --seeds A,B,...

Run from the root of a source checkout. The first run builds the library,
the CLI and the benchmark's two helpers (perfbench/CMakeLists.txt, Release)
into .bench_build/; every file the benchmark writes stays under that
directory. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
BUILD = Path(".bench_build/build")
WORK = Path(".bench_build/work")
RESULTS = Path(".bench_build/results")
PINS = BENCH / "pins.json"
BIN = BUILD / "bin"
PROFISCHED = str(BIN / "profisched")
CLIENT = str(BIN / "perfbench_client")
TRACER = str(BIN / "perfbench_trace")

THREADS = min(4, os.cpu_count() or 1)
RUN_LIMIT_S = 165.0     # budget after the build; the contract allows 180
MIN_ITERATIONS = 3
SETUP_ROUNDS = 9

FAULTS = "loss=0.02,recovery=800,corrupt=0.05,retrans=2,churn=0.01,offline=5000,burst=0.7"
GRIDS = {
    "sweep_cliff": ["--u", "0.1:1.0:10", "--policies", "fcfs,dm,edf,opa"],
    "optimize_sharded": ["--u", "0.35:0.95:5", "--masters", "3", "--streams", "5",
                         "--policies", "fcfs,dm,edf,opa"],
    "combined_faulted": ["--reps", "2", "--faults", FAULTS, "--u", "0.3:1.2:4",
                         "--masters", "3", "--streams", "4"],
    "served_jobs": ["--u", "0.1:0.9:5", "--masters", "3", "--streams", "5"],
}
# One low-utilization point with one scenario: the fixed cost of starting the
# workload's first command, which is what set-up measures for batch runs.
PROBE_GRIDS = {
    "sweep_cliff": ["--u", "0.1:0.1:1", "--policies", "fcfs,dm,edf,opa"],
    "optimize_sharded": ["--u", "0.35:0.35:1", "--masters", "3", "--streams", "5",
                         "--policies", "fcfs,dm,edf,opa"],
    "combined_faulted": ["--reps", "2", "--faults", FAULTS, "--u", "0.3:0.3:1",
                         "--masters", "3", "--streams", "4"],
}
# The served workload's closed loop: name, policies. Extend adds OPA to the
# cold job's three policies; warm repeats extend. Against a fresh result cache
# (the traced run's cached pass) they read 0%, 75% and 100% hits.
SERVED_JOBS = [("cold", "fcfs,dm,edf"), ("extend", "fcfs,dm,edf,opa"),
               ("warm", "fcfs,dm,edf,opa")]
SERVED_OVERSPLIT = "8"
CACHE_PASS_SCENARIOS = 1000
WORKLOADS = list(GRIDS)

# Metric name -> unit, as BENCHMARK.json declares them.
END_TO_END = {}
PER_LAYER = {}


class BenchError(Exception):
    """A failure that voids the run: no result line is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    if not xs:
        return 0.0
    xs = sorted(xs)
    return float(xs[min(len(xs) - 1, int(q * len(xs)))])


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------- build

def build(trace):
    """Configure once, then bring the needed targets up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("run from the root of a profisched source checkout "
                         "(CMakeLists.txt and src/ not found)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    targets = ["profisched_cli", "perfbench_client"] + (["perfbench_trace"] if trace else [])
    with open(log_path, "w") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH.relative_to(ROOT)), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(THREADS),
                      "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    build_type = ""
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type not in ("Release", "RelWithDebInfo"):
        raise BenchError(f"refusing to time a '{build_type or 'unset'}' build")
    return build_type


def environment(build_type):
    simd = json.loads(subprocess.run([CLIENT, "env"], capture_output=True, text=True,
                                     check=True).stdout)["simd_backend"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {"nproc": os.cpu_count(), "threads": THREADS, "build_type": build_type,
            "simd_backend": simd, "PROFISCHED_SIMD": os.environ.get("PROFISCHED_SIMD", "unset"),
            "commit": commit}


# ---------------------------------------------------------------- processes

class Run:
    """One benchmark run: its deadline, resource accounting and checks."""

    def __init__(self, workload, seed, pins, record=None):
        self.workload = workload
        self.pins = pins
        self.input_seed = seed
        self.scenarios = str(pins["scenarios"])
        self.record = record          # dict to fill with digests, or None to check
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cpu_s = 0.0              # summed over processes since reset()
        self.max_rss_kb = 0
        self.setup_samples = []
        self.daemon = None
        self.jobs = []                # the last served iteration's job timings
        self.notes = {}
        self.log = open(WORK / f"{workload}.log", "a")

    def reset(self):
        self.cpu_s = 0.0
        self.max_rss_kb = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            log(f"check failed: {what}")
        return ok

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left

    def spawn(self, cmd, stdout=None):
        return subprocess.Popen(cmd, stdout=stdout or self.log, stderr=self.log)

    def reap(self, proc):
        """Wait for `proc` (killing it at the deadline) and account its usage."""
        timer = threading.Timer(self.remaining(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if time.monotonic() >= self.deadline:
            raise BenchError(f"timed out: {' '.join(proc.args)}")
        return proc.returncode

    def call(self, cmd, stdout=None):
        return self.reap(self.spawn(cmd, stdout))

    def expect_outputs(self, out, names):
        """Compare output digests with the pins for this input seed."""
        pinned = self.pins["seeds"].get(str(self.input_seed), {})
        for name in names:
            path = out / name
            if not self.check(path.is_file(), f"{name} was not written"):
                continue
            digest = sha256(path)
            if self.record is not None:
                self.record[name] = digest
            else:
                self.check(pinned.get(name) == digest, f"{name} digest differs from its pin")

    def common(self):
        return ["--scenarios", self.scenarios, "--seed", str(self.input_seed)]

    # ------------------------------------------------------------ daemon

    def start_daemon(self, cache=False):
        """Fresh daemon dir (and an empty cache dir), then `serve` until its
        socket answers. Returns the set-up time in seconds."""
        t0 = time.perf_counter()
        base = WORK / "served"
        fresh_dir(base)
        sock = base / "d.sock"
        cmd = [PROFISCHED, "serve", "--socket", str(sock), "--threads", str(THREADS)]
        if cache:
            cmd += ["--cache", str(fresh_dir(base / "cache"))]
        self.daemon = self.spawn(cmd)
        while True:
            if self.daemon.poll() is not None:
                raise BenchError("serve exited before accepting connections")
            try:
                request(sock, "status")
                break
            except OSError:
                self.remaining()
                time.sleep(0.0002)
        return time.perf_counter() - t0

    def stop_daemon(self):
        sock = WORK / "served" / "d.sock"
        try:
            request(sock, "shutdown")
        except OSError as e:
            log(f"shutdown request failed: {e}")
            self.daemon.kill()
        rc = self.reap(self.daemon)
        self.daemon = None
        self.check(rc == 0, f"serve exited with {rc}")


def request(sock_path, payload):
    """One framed request/response on the serve protocol: `<len>\\n<payload>`."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(10)
        s.connect(str(sock_path))
        data = payload.encode()
        s.sendall(str(len(data)).encode() + b"\n" + data)
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(4096)
            if not chunk:
                raise OSError("connection closed mid-frame")
            buf += chunk
        head, rest = buf.split(b"\n", 1)
        need = int(head)
        while len(rest) < need:
            chunk = s.recv(65536)
            if not chunk:
                raise OSError("connection closed mid-frame")
            rest += chunk
        return rest[:need].decode()


# ---------------------------------------------------------------- workloads
#
# Each iteration function runs one full pass of its workload into `out` and
# returns its wall time: first launch to last output verified. CPU and RSS
# accumulate on the Run. With `metrics`, every invocation also writes its
# --metrics sidecar into `out` (the traced run's layer source).

def sweep_cliff(run, out, metrics):
    t0 = time.perf_counter()
    cmd = [PROFISCHED, "sweep", *GRIDS["sweep_cliff"], *run.common(),
           "--threads", str(THREADS), "--csv", str(out / "sweep.csv"),
           "--json", str(out / "sweep.json")]
    if metrics:
        cmd += ["--metrics", str(out / "sweep.metrics.json")]
    run.check(run.call(cmd) == 0, "sweep exited non-zero")
    run.expect_outputs(out, ["sweep.csv", "sweep.json"])
    return time.perf_counter() - t0


def optimize_sharded(run, out, metrics):
    t0 = time.perf_counter()
    shards = []
    for k in range(1, 5):
        shard = out / f"shard{k}.txt"
        cmd = [PROFISCHED, "shard", "--mode", "optimize", "--shard", f"{k}/4",
               "--out", str(shard), *GRIDS["optimize_sharded"], *run.common(),
               "--threads", str(THREADS)]
        if metrics:
            cmd += ["--metrics", str(out / f"shard{k}.metrics.json")]
        run.check(run.call(cmd) == 0, f"shard {k}/4 exited non-zero")
        shards.append(str(shard))
    cmd = [PROFISCHED, "merge", "--csv", str(out / "merged.csv"),
           "--json", str(out / "merged.json")]
    if metrics:
        cmd += ["--metrics", str(out / "merge.metrics.json")]
    run.check(run.call(cmd + shards) == 0, "merge exited non-zero")
    run.expect_outputs(out, ["merged.csv", "merged.json"])
    return time.perf_counter() - t0


def combined_faulted(run, out, metrics):
    t0 = time.perf_counter()
    cmd = [PROFISCHED, "simulate", "--combined", *GRIDS["combined_faulted"], *run.common(),
           "--threads", str(THREADS), "--csv", str(out / "combined.csv"),
           "--json", str(out / "combined.json")]
    if metrics:
        cmd += ["--metrics", str(out / "combined.metrics.json")]
    # Exit 1 here means a bound violation or an accepted-but-missed deadline.
    run.check(run.call(cmd) == 0, "simulate --combined exited non-zero")
    run.expect_outputs(out, ["combined.csv", "combined.json"])
    return time.perf_counter() - t0


def served_jobs_args(run, out, metrics):
    args = ["--socket", str(WORK / "served" / "d.sock")]
    for name, policies in SERVED_JOBS:
        args += ["--job", name, "--oversplit", SERVED_OVERSPLIT, *GRIDS["served_jobs"],
                 "--policies", policies, *run.common(),
                 "--csv", str(out / f"{name}.csv"), "--json", str(out / f"{name}.json")]
        if metrics:
            args += ["--metrics", str(out / f"{name}.metrics.json")]
    return args


def served_jobs(run, out, metrics, cache=False):
    """Fresh daemon (set-up, not timed here), then the three jobs in a closed
    loop from the benchmark's client, then shutdown.

    Timed runs use no result cache: each cache entry is one new file, and
    file creation on the reference VM cost 10-450 us and drifted with the
    filesystem's history, which spread this workload's wall time by 62%
    across runs. The traced run adds one cached pass for the cache layer."""
    run.setup_samples.append(run.start_daemon(cache))
    t0 = time.perf_counter()
    jobs_path = out / "jobs.jsonl"
    with open(jobs_path, "w") as jobs_out:
        rc = run.call([CLIENT, *served_jobs_args(run, out, metrics)], stdout=jobs_out)
    run.check(rc == 0, "served client exited non-zero")
    jobs = [json.loads(line) for line in jobs_path.read_text().splitlines() if line.strip()]
    for name, _ in SERVED_JOBS:
        job = next((j for j in jobs if j["job"] == name), None)
        run.check(job is not None and job["state"] == "done", f"served job {name} not done")
    run.expect_outputs(out, [f"{name}.{ext}" for name, _ in SERVED_JOBS
                             for ext in ("csv", "json")])
    wall = time.perf_counter() - t0
    run.stop_daemon()
    run.jobs = jobs
    return wall


ITERATIONS = {"sweep_cliff": sweep_cliff, "optimize_sharded": optimize_sharded,
              "combined_faulted": combined_faulted, "served_jobs": served_jobs}


def setup_round(run):
    """One set-up: fresh dirs, then the system made ready to take the
    workload. Returns seconds."""
    if run.workload == "served_jobs":
        t = run.start_daemon()
        run.stop_daemon()
        return t
    t0 = time.perf_counter()
    out = fresh_dir(WORK / "setup")
    first = {"sweep_cliff": ["sweep"], "combined_faulted": ["simulate", "--combined"],
             "optimize_sharded": ["shard", "--mode", "optimize", "--shard", "1/4",
                                  "--out", str(out / "shard1.txt")]}[run.workload]
    cmd = [PROFISCHED, *first, *PROBE_GRIDS[run.workload], "--scenarios", "1",
           "--seed", str(run.input_seed), "--threads", str(THREADS)]
    if run.workload != "optimize_sharded":
        cmd += ["--csv", str(out / "probe.csv")]
    run.check(run.call(cmd) == 0, "set-up probe exited non-zero")
    return time.perf_counter() - t0


def iterate(run, metrics=False, **options):
    out = fresh_dir(WORK / "out")
    run.reset()
    wall = ITERATIONS[run.workload](run, out, metrics, **options)
    return {"wall_s": wall, "cpu_s": run.cpu_s, "rss_kb": run.max_rss_kb, "out": out}


# ---------------------------------------------------------------- modes

def measure(run, seconds):
    """Warm-up, set-up rounds, then timed iterations for `seconds`."""
    iterate(run)  # discarded warm-up: caches, page cache, CPU clocks
    for _ in range(SETUP_ROUNDS):
        run.setup_samples.append(setup_round(run))
    samples = []
    jobs = {name: [] for name, _ in SERVED_JOBS}
    t_end = time.monotonic() + seconds
    while len(samples) < MIN_ITERATIONS or time.monotonic() < t_end:
        samples.append(iterate(run))
        for job in run.jobs:
            jobs[job["job"]].append(job["latency_ns"] / 1e9)
    metrics = {
        "wall_s": median([s["wall_s"] for s in samples]),
        "cpu_s": median([s["cpu_s"] for s in samples]),
        # Median over iterations of each iteration's largest max-RSS: the
        # daemon's connection threads can pile up for one contended
        # iteration and lift its peak by 15%.
        "peak_rss_mb": median([s["rss_kb"] for s in samples]) / 1024.0,
        "setup_s": median(run.setup_samples),
    }
    extra = {"iterations": len(samples), "setup_rounds": len(run.setup_samples),
             "failed_share": run.failed / max(1, run.attempted)}
    run.notes["wall_samples"] = " ".join(f"{s['wall_s']:.3f}" for s in samples)
    if run.workload == "served_jobs":
        for name, values in jobs.items():
            extra[f"job_{name}_s"] = median(values)
    return metrics, extra


def sidecar(path):
    data = json.loads(Path(path).read_text())
    flat = {c["name"]: c["value"] for c in data["counters"]}
    flat.update({t["name"]: t["total_ns"] for t in data["timers"]})
    flat["config_digest"] = data["config_digest"]
    flat["threads"] = data["threads"]
    return flat


def sum_series(sidecars, name):
    return sum(s.get(name, 0) for s in sidecars)


def diff_series(cumulative):
    """Per-job deltas from a daemon's cumulative per-job manifests."""
    prev, out = {}, []
    for snap in cumulative:
        delta = {k: v - prev.get(k, 0) for k, v in snap.items()}
        delta.update(config_digest=snap["config_digest"], threads=snap["threads"])
        out.append(delta)
        prev = snap
    return out


def load_spans(path):
    spans = {}
    with open(path) as f:
        next(f)
        for line in f:
            _, _, trace, name, start, end, value = line.split()
            spans.setdefault(name, []).append((int(trace), int(end) - int(start), int(value)))
    return spans


def traced(run):
    """Per-layer numbers: untraced and sidecar iterations alternate (their
    ratio is the sidecar overhead), then the layer driver replays the
    workload's calls with spans."""
    iterate(run)  # warm-up
    plain, instrumented = [], []
    for _ in range(2):
        plain.append(iterate(run)["wall_s"])
        it = iterate(run, metrics=True)
        instrumented.append(it["wall_s"])
    out = it["out"]
    trace_dir = fresh_dir(WORK / "trace")
    m = {name: 0.0 for name in PER_LAYER}
    m["trace.sidecar_overhead_ratio"] = median(instrumented) / median(plain)

    w = run.workload
    flags, extra_args = [], []
    if w == "sweep_cliff":
        flags = ["--mode", "sweep", *GRIDS[w]]
        cars = [sidecar(out / "sweep.metrics.json")]
        outputs = ["sweep.csv", "sweep.json"]
    elif w == "optimize_sharded":
        flags = ["--mode", "optimize", *GRIDS[w]]
        cars = [sidecar(out / f"shard{k}.metrics.json") for k in range(1, 5)]
        merge = sidecar(out / "merge.metrics.json")
        extra_args = ["--shards", *[str(out / f"shard{k}.txt") for k in range(1, 5)]]
        outputs = ["merged.csv", "merged.json"]
    elif w == "combined_faulted":
        flags = ["--mode", "combined", *GRIDS[w]]
        cars = [sidecar(out / "combined.metrics.json")]
        outputs = ["combined.csv", "combined.json"]
    else:
        names = [name for name, _ in SERVED_JOBS]
        cars = diff_series([sidecar(out / f"{name}.metrics.json") for name in names])
        outputs = [f"{name}.{ext}" for name in names for ext in ("csv", "json")]
        jobs = run.jobs
        m["serve.rtt_ns"] = median([j["rtt_ns_p50"] for j in jobs])
        m["serve.queue_wait_ns"] = sum(j["queue_wait_ns"] for j in jobs)
        m["serve.run_ns"] = sum(j["run_ns"] for j in jobs)
        for j in jobs:
            m[f"serve.job_{j['job']}_s"] = j["latency_ns"] / 1e9

    # Sidecar-derived engine numbers.
    hits, misses = sum_series(cars, "engine.memo_hits"), sum_series(cars, "engine.memo_misses")
    m["engine.memo_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    stage_ns = sum(sum_series(cars, f"runner.{s}") for s in ("generate", "analyze", "simulate"))
    capacity_ns = sum(c.get("runner.range", 0) * c.get("threads", THREADS) for c in cars)
    if stage_ns == 0:  # optimize mode has no per-stage timers: use process CPU
        stage_ns = run.cpu_s * 1e9
    m["engine.pool_idle_share"] = max(0.0, 1.0 - stage_ns / capacity_ns) if capacity_ns else 0.0
    if w == "combined_faulted":
        m["sim.worker_share"] = sum_series(cars, "runner.simulate") / stage_ns
    final = [merge] if w == "optimize_sharded" else cars
    m["engine.aggregate_ns"] = sum_series(final, "phase.aggregate")
    m["engine.serialize_ns"] = sum_series(final, "phase.write")
    m["engine.output_bytes"] = sum((out / name).stat().st_size for name in outputs)

    if w == "served_jobs":
        cars = cached_pass(run, m)
        flags = ["--mode", "sweep", *GRIDS[w], "--policies", SERVED_JOBS[-1][1]]
        extra_args = ["--cache-dir", str(fresh_dir(trace_dir / "cache")),
                      "--cold-policies", str(len(SERVED_JOBS[0][1].split(",")))]

    t0 = time.perf_counter()
    cmd = [TRACER, "--spans", str(trace_dir / "spans.txt"), "--spec", str(trace_dir / "spec.txt"),
           "--threads", str(THREADS), *extra_args, "--", *flags, *run.common()]
    with open(trace_dir / "summary.json", "w") as summary:
        run.check(run.call(cmd, stdout=summary) == 0, "layer driver exited non-zero")
    m["trace.tracer_wall_ratio"] = (time.perf_counter() - t0) / median(plain)
    # The driver must have run the real run's spec: same canonical spec block.
    # (The served driver replays the cached pass's four-policy warm job.)
    digest = fnv1a64((trace_dir / "spec.txt").read_bytes())
    run.check(cars[-1]["config_digest"] == digest,
              "layer driver's spec differs from the real run's sidecar digest")

    spans = load_spans(trace_dir / "spans.txt")
    gen = [d for _, d, _ in spans.get("workload.generate", [])]
    m["workload.generate_ns.p50"] = percentile(gen, 0.5)
    m["workload.generate_ns.p99"] = percentile(gen, 0.99)
    spp = int(run.scenarios)
    cells, analysis_total = {}, 0
    for name, rows in spans.items():
        if not name.startswith("profibus.analyze."):
            continue
        policy = name.rsplit(".", 1)[1].lower()
        ds = [d for _, d, _ in rows]
        m[f"profibus.analyze_ns.{policy}.p50"] = percentile(ds, 0.5)
        m[f"profibus.analyze_ns.{policy}.p99"] = percentile(ds, 0.99)
        m[f"profibus.analyze_ns.{policy}.total"] = sum(ds)
        analysis_total += sum(ds)
        for trace, d, _ in rows:
            cells[(trace // spp, policy)] = cells.get((trace // spp, policy), 0) + d
    if cells:
        (point, policy), cost = max(cells.items(), key=lambda kv: kv[1])
        m["profibus.slowest_point_share"] = cost / analysis_total
        run.notes["slowest_cell"] = f"point {point} / {policy}"
    opt_rows = [r for name, rows in spans.items() if name.startswith("opt.optimize.")
                for r in rows]
    if opt_rows:
        probes = sum(v for _, _, v in opt_rows)
        m["opt.probes_per_cell"] = probes / len(opt_rows)
        m["opt.probe_ns"] = sum(d for _, d, _ in opt_rows) / max(1, probes)
    reps = spans.get("sim.replication", [])
    if reps:
        events = sum(v for _, _, v in reps)
        m["sim.replication_ns"] = percentile([d for _, d, _ in reps], 0.5)
        m["sim.events_per_replication"] = events / len(reps)
        m["sim.ns_per_event"] = sum(d for _, d, _ in reps) / max(1, events)
        m["sim.setup_ns"] = percentile([d for _, d, _ in spans.get("sim.setup", [])], 0.5)
    for kind in ("decode", "encode"):
        rows = spans.get(f"dist.{kind}", [])
        if rows:
            count = sum(v for _, _, v in spans["dist.decode"])  # rows per artifact
            m[f"dist.{kind}_ns_per_row"] = sum(d for _, d, _ in rows) / max(1, count)
    if "dist.merge" in spans:
        m["dist.merge_ns"] = spans["dist.merge"][0][1]
        m["dist.artifact_bytes"] = sum(v for _, _, v in spans["dist.encode"])
    for op in ("load", "store"):
        ds = [d for _, d, _ in spans.get(f"cache.{op}", [])]
        if ds:
            m[f"cache.{op}_ns.p50"] = percentile(ds, 0.5)
            m[f"cache.{op}_ns.p99"] = percentile(ds, 0.99)
    shutil.rmtree(trace_dir / "cache", ignore_errors=True)
    return m


def cached_pass(run, m):
    """The served jobs once more, on a fresh daemon with an empty result
    cache, at most CACHE_PASS_SCENARIOS per point (each entry is a file). The
    three jobs must read exactly 0, 0.75 and 1 hits, and the all-hits warm
    job must write the extend job's bytes. Leaves run.scenarios at the pass
    size, so the layer driver replays the same jobs. Returns the per-job
    sidecars."""
    run.scenarios = str(min(CACHE_PASS_SCENARIOS, int(run.scenarios)))
    run.record = digests = {}
    out = iterate(run, metrics=True, cache=True)["out"]
    run.record = None
    names = [name for name, _ in SERVED_JOBS]
    cars = diff_series([sidecar(out / f"{name}.metrics.json") for name in names])
    for name, car, expected in zip(names, cars, (0.0, 0.75, 1.0)):
        lookups = car.get("cache.lookups", 0)
        ratio = car.get("cache.hits", 0) / lookups if lookups else -1.0
        m[f"cache.hit_ratio.{name}"] = ratio
        run.check(ratio == expected, f"cached {name} job hit ratio {ratio} != {expected}")
    m["cache.bytes_written"] = sum_series(cars, "cache.file.bytes_written")
    for ext in ("csv", "json"):
        run.check(digests.get(f"warm.{ext}") == digests.get(f"extend.{ext}"),
                  f"cached warm.{ext} differs from extend.{ext}")
    shutil.rmtree(WORK / "served" / "cache", ignore_errors=True)
    return cars


# ---------------------------------------------------------------- driver

def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def new_run(workload, seed, profile):
    pins = load_pins().get(profile, {}).get(workload)
    if not pins:
        raise BenchError(f"no pinned inputs for {profile}/{workload} in {PINS}")
    seeds = list(pins["seeds"])
    return Run(workload, int(seeds[seed % len(seeds)]), pins)


def run_one(workload, seed, seconds, trace, profile, env):
    run = new_run(workload, seed, profile)
    try:
        if trace:
            metrics, extra, units = traced(run), {}, PER_LAYER
        else:
            (metrics, extra), units = measure(run, seconds), END_TO_END
        if set(metrics) != set(units):
            raise BenchError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    finally:
        if run.daemon is not None:
            run.daemon.kill()
            run.daemon.wait()
        run.log.close()
    result = {"workload": workload, "seed": seed, "input_seed": run.input_seed,
              "profile": profile, "trace": trace, "env": env, "extra": extra,
              "notes": run.notes, "failures": run.failures,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return run, result


def report(result, run):
    """The human-readable table: every metric by name and unit."""
    print(f"== {result['workload']} (seed {result['seed']} -> input seed "
          f"{result['input_seed']}, profile {result['profile']}, trace {result['trace']})")
    for k, v in result["metrics"].items():
        print(f"  {k:<36} {v['value']:>14.6g} {v['unit']}")
    for k, v in {**result["extra"], **result["notes"]}.items():
        print(f"  {k:<36} {v:>14}" if isinstance(v, str) else f"  {k:<36} {v:>14.6g}")
    print(f"  checks: {run.attempted} attempted, {run.failed} failed")


def record_pins(workload, profile, scenarios, seeds):
    all_pins = load_pins()
    entry = {"scenarios": scenarios, "seeds": {}}
    for s in seeds:
        digests = {}
        run = Run(workload, s, {"scenarios": scenarios, "seeds": {}}, record=digests)
        t = iterate(run)
        run.log.close()
        if run.failed:
            raise BenchError(f"seed {s}: {run.failures}")
        entry["seeds"][str(s)] = digests
        log(f"{workload} seed {s}: wall {t['wall_s']:.3f} s, cpu {t['cpu_s']:.3f} s")
    all_pins.setdefault(profile, {})[workload] = entry
    PINS.write_text(json.dumps(all_pins, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", default="full", help="pinned input set: full or smoke")
    ap.add_argument("--record-pins", action="store_true")
    ap.add_argument("--scenarios", type=int, help="with --record-pins")
    ap.add_argument("--seeds", help="with --record-pins: comma-separated input seeds")
    a = ap.parse_args()

    try:
        if not (ROOT / "BENCHMARK.json").is_file():
            raise BenchError("run from the checkout root (BENCHMARK.json not found)")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        PER_LAYER.update({m["name"]: m["unit"] for m in spec["per_layer"]})
        END_TO_END.update({m["name"]: m["unit"] for m in spec["end_to_end"]})
        build_type = build(a.trace or a.record_pins)
        WORK.mkdir(parents=True, exist_ok=True)
        env = environment(build_type)
        if a.record_pins:
            if a.workload == "all" or not a.scenarios or not a.seeds:
                raise BenchError("--record-pins needs one --workload, --scenarios and --seeds")
            record_pins(a.workload, a.profile, a.scenarios, [int(s) for s in a.seeds.split(",")])
            return 0
        names = WORKLOADS if a.workload == "all" else [a.workload]
        attempted = failed = 0
        metrics = {}
        for w in names:
            run, result = run_one(w, a.seed, a.seconds, a.trace, a.profile, env)
            report(result, run)
            print("env " + json.dumps(env))
            attempted += run.attempted
            failed += run.failed
            for k, v in result["metrics"].items():
                metrics[k if len(names) == 1 else f"{w}/{k}"] = v
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    except BenchError as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
