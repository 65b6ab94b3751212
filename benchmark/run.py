"""blocksrc benchmark: one workload per process.

Run from the root of a checkout:

    python3 benchmark/run.py --workload learn --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` sets up the inputs several times (``setup_s`` is the median),
then repeats untraced passes of the workload until ``--seconds`` is spent
and reports the median pass. Its times are rescaled to a fixed core speed
(see ``HostProbe``); the raw wall and CPU seconds go to stderr and the
result file. ``--trace 1`` runs two traced passes between
two untraced ones and reports per-layer metrics; it also checks that the
two traced passes repeat every exact count and that traced and untraced
passes write byte-identical reports; it ignores ``--seconds``. ``--workload all``
runs each workload in a child process of its own.

The last stdout line is the result as JSON. The line before it records the
environment. Scratch files and result files go to ``.bench_out/`` in the
current directory.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracer

ROOT = os.getcwd()
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 7
PROBE_PY_STEPS = 10_000  # steps of the probe's pure-Python integer loop
PROBE_NP_STEPS = 30  # steps of the probe's small-array numpy loop
PROBE_PERIOD_S = 0.1  # probe interval during a pass
SETUP_PROBE_PERIOD_S = 0.01  # probe interval during a set-up, which lasts tens of ms
PROBE_REF_S = 1e-3  # probe time that defines the reference core speed (about a quiet core's)


def _import_program():
    """Import blocksrc from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "blocksrc", "__init__.py")):
        sys.exit(f"benchmark: no blocksrc sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import blocksrc

    if not os.path.abspath(blocksrc.__file__).startswith(src + os.sep):
        sys.exit(f"benchmark: imported blocksrc from {blocksrc.__file__}, not from {src}")


def blas_info() -> dict:
    """BLAS name, version and thread count as numpy was built and loaded;
    the thread count is read, never set."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def environment(seed: int) -> dict:
    import numpy as np

    commit = None  # a checkout without .git records only the source digest
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "blocksrc", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def tree_digest(path: str) -> dict:
    out = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


def fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class HostProbe:
    """How fast the timed thread's core runs while it runs the workload.

    On a shared host a core's speed drifts by a third or more over seconds
    to minutes with other tenants' load. While the probe is on, a SIGALRM
    timer interrupts the main thread every ``period`` seconds and times a
    fixed probe there, on the same core: a pure-Python integer loop and a
    loop of numpy operations on 66x8 arrays, the two kinds of work the
    workloads do between BLAS calls. Over 4-minute series of code8 and grid
    passes on a 2-vCPU shared host, pass time tracked this probe's time with
    correlation 0.97 to 0.99 and a log-log slope of 1.16; a pure-Python loop
    alone had a slope of 1.3 to 1.4, so it under-corrected. Ten runs at
    seeds 1 to 10 spread (IQR / median) 0.03 to 0.06 rescaled, 0.17 to 0.23 raw.

    A section's time scaled by ``scale()`` (PROBE_REF_S over the mean probe
    time) is its time on a core where the probe takes PROBE_REF_S. ``wall``
    and ``cpu`` are the probes' own time, which the caller subtracts from
    the section. The scaling assumes the program leaves the probe's core to
    the probe while the probe runs: a program that keeps other threads busy
    between Python bytecodes slows the probe too, so compare raw times as
    well when a change alters the program's threading."""

    def __init__(self, period: float):
        import numpy as np

        self.period = period
        self.times: list[float] = []
        self.wall = self.cpu = 0.0
        rng = np.random.default_rng(0)
        a = rng.standard_normal((66, 66))
        self._gram = a @ a.T / 66
        self._rhs = rng.standard_normal((66, 8))

    def _probe(self):
        import numpy as np

        w0, c0 = time.perf_counter(), time.process_time()
        acc = 0
        for i in range(PROBE_PY_STEPS):
            acc += i * i
        z = np.zeros_like(self._rhs)
        for _ in range(PROBE_NP_STEPS):
            w = z - (self._gram @ z - self._rhs) / 50.0
            z = np.sign(w) * np.maximum(np.abs(w) - 0.01, 0.0)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.times.append(wall)
        return wall, cpu

    def _interrupt(self, signum, frame):
        wall, cpu = self._probe()
        self.wall += wall
        self.cpu += cpu

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._interrupt)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.times:  # a section shorter than one period: probe once, after it
            self._probe()
        return False

    def scale(self) -> float:
        return PROBE_REF_S / statistics.mean(self.times)


def timed_pass(w, inputs, seed, out_dir):
    fresh(out_dir)
    w0, c0 = time.perf_counter(), time.process_time()
    reports = workloads.run_pass(w, inputs, seed, out_dir)
    return reports, time.perf_counter() - w0, time.process_time() - c0


def setup(w, seed, work):
    t0 = time.perf_counter()
    inputs = workloads.make_inputs(w, seed, work)
    workloads.warm_up(w, seed, os.path.join(work, "warm"))
    return inputs, time.perf_counter() - t0


def probed_setup(w, seed, work):
    """A set-up: (inputs, raw seconds, seconds at the reference speed)."""
    with HostProbe(SETUP_PROBE_PERIOD_S) as probe:
        inputs, wall = setup(w, seed, work)
    wall -= probe.wall
    return inputs, wall, wall * probe.scale()


def run_untraced(w, seed, seconds, work):
    setups = [probed_setup(w, seed, work) for _ in range(SETUP_REPEATS)]
    inputs = setups[-1][0]
    out_dir = os.path.join(work, "out")
    walls, cpus, scales, checks, quality = [], [], [], workloads.CheckResult(), None
    start = time.perf_counter()
    while True:
        with HostProbe(PROBE_PERIOD_S) as probe:
            reports, wall, cpu = timed_pass(w, inputs, seed, out_dir)
        walls.append(wall - probe.wall)
        cpus.append(cpu - probe.cpu)
        scales.append(probe.scale())
        checks.add(workloads.check_reports(reports, out_dir))
        quality = quality or workloads.quality(reports)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(ref for _, _, ref in setups),
        "run_ref_s": statistics.median(t * k for t, k in zip(walls, scales)),
        "cpu_ref_s": statistics.median(t * k for t, k in zip(cpus, scales)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "auc_pct": quality[0],
        "acc_pct": quality[1],
        "fold_pass_ratio": 1 - checks.failed / checks.attempted,
    }
    raw = {
        "run_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_raw_s": statistics.median(raw for _, raw, _ in setups),
        "probe_ms": 1e3 * PROBE_REF_S / statistics.median(scales),
    }
    extra = {
        "raw": raw,
        "run_s_passes": walls,
        "cpu_s_passes": cpus,
        "probe_scale_passes": scales,
        "setup_s_all": [raw for _, raw, _ in setups],
        "setup_scale_all": [ref / raw for _, raw, ref in setups],
    }
    return metrics, checks, extra


def run_traced(w, seed, work):
    """An untraced pass, two traced passes (inputs re-drawn under the tracer
    so set-up layers are seen), and a second untraced pass. Per-layer values
    are the median of the two traced passes; the overhead compares them with
    the second untraced pass, because the first pays one-off costs such as
    first-touch page faults of the largest buffers."""
    inputs, _ = setup(w, seed, work)
    out_dir = os.path.join(work, "out")
    reports, first_s, _ = timed_pass(w, inputs, seed, out_dir)
    checks = workloads.check_reports(reports, out_dir)
    reference = tree_digest(out_dir)
    per_pass, tracers, traced_runs = [], [], []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            inputs = workloads.make_inputs(w, seed, work)
            reports, traced_s, _ = timed_pass(w, inputs, seed, out_dir)
        finally:
            tr.uninstall()
        traced_runs.append(traced_s)
        res = workloads.check_reports(reports, out_dir)
        if tr.flagged_folds:
            res.problems.append(f"{len(tr.flagged_folds)} folds have codes reported feasible above eps")
            res.failed = max(res.failed, len(tr.flagged_folds))
        got = tree_digest(out_dir)
        differ = sorted(k for k in set(reference) | set(got) if reference.get(k) != got.get(k))
        if differ:
            res.problems.append(f"traced reports differ from untraced: {differ[:5]}")
            stems = {os.path.splitext(p)[0].removesuffix("_roc") for p in differ}
            res.failed += sum(r.config["k_folds"] for r in reports if workloads.report_stem(r) in stems)
        checks.add(res)
        m = tr.layer_metrics()
        m["harness.report_bytes"] = tree_bytes(out_dir)
        per_pass.append(m)
        tracers.append(tr)
    reports, untraced_s, _ = timed_pass(w, inputs, seed, out_dir)
    checks.add(workloads.check_reports(reports, out_dir))
    for m, traced_s in zip(per_pass, traced_runs):
        m["bench.trace_overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    first, second = (t.exact_counts() for t in tracers)
    if first != second:
        checks.problems.append(f"exact counts differ between two passes at one seed: {first} vs {second}")
    # Counts are ints and repeat exactly (checked above); times take the median.
    metrics = {
        name: v if isinstance(v, int) else statistics.median(m[name] for m in per_pass)
        for name, v in per_pass[0].items()
    }
    extra = {
        "absent": tracers[0].absent,
        "unreadable": tracers[0].unreadable,
        "exact_counts": first,
        "untraced_run_s": [first_s, untraced_s],
        "traced_run_s": traced_runs,
    }
    return metrics, checks, extra, tracers[0].dump()


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json at the checkout root declares
    them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    _import_program()
    global workloads
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    units = declared_units(args.trace)
    w = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    work = fresh(os.path.join(OUT_ROOT, f"work-{os.getpid()}"))
    spans = None
    try:
        if args.trace:
            metrics, checks, extra, spans = run_traced(w, args.seed, work)
        else:
            metrics, checks, extra = run_untraced(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        sys.exit(f"benchmark: measured {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    result = {
        "correct": checks.failed == 0 and not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(OUT_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": w.name, "env": env, "extra": extra, "problems": checks.problems, **result},
                  fh, indent=1)
    if spans is not None:
        with gzip.open(os.path.join(results, stem + "-spans.json.gz"), "wt", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": spans}, fh)

    for problem in checks.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in extra.get("absent", ()):
        print(f"layer absent: {name}", file=sys.stderr)
    for name, why in extra.get("unreadable", {}).items():
        print(f"layer counts unreadable: {name} ({why})", file=sys.stderr)
    for k, u in units.items():
        print(f"{w.name:6s} {k:32s} {metrics[k]:14.6g} {u}", file=sys.stderr)
    for k, v in extra.get("raw", {}).items():
        print(f"{w.name:6s} {k:32s} {v:14.6g} {'ms' if k.endswith('_ms') else 's'} (raw)", file=sys.stderr)
    print(f"{w.name:6s} {'fold_fail_ratio':32s} {checks.failed / checks.attempted:14.6g} ratio", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a process of its own (so peak_rss_mb is that
    workload's alone); prints each one's table and a combined JSON line."""
    _import_program()
    import workloads

    combined, code = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        combined[name] = json.loads(lines[-1])
        code = code or proc.returncode
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="learn, code8, grid, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
