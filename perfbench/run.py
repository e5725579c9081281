"""fsz-lab benchmark: four workloads, exact output checks, optional tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

A run imports fsz_lab from ``src/`` of the checkout it sits in and refuses to
run (exit 2, no result) when that tree is missing.  Each workload runs in its
own interpreter, because fsz_lab keeps process-wide caches (field specs,
field tables, symmetric blocks) whose state would otherwise leak from one
workload into the next.

With ``--trace 0`` the run measures the end-to-end figures:

* ``setup_s``: median over fresh interpreters of the time from spawning the
  interpreter to the workload's inputs being ready;
* ``first_pass_s``: the cold first pass in this process, which fills lazy
  tables and caches;
* ``wall_s``: median of the warm passes made in the ``--seconds`` window;
* ``peak_rss_mb``: this process's own peak resident set;
* ``fail_ratio``: failed checks over attempted checks.

With ``--trace 1`` it measures the per-layer metrics of ``layer_map.json``
from two traced warm passes, whose exact counts must repeat.

Stdout ends with a report line (provenance, raw samples, and with
``--trace 0`` every figure above with its unit and sample count) and then the
result line ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics BENCHMARK.json declares.  Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5  # fresh interpreters per run whose setup time is the median
MIN_WARM = 2  # warm passes made even when one pass outlasts --seconds
CLI_REPEATS = 3
HEADLINE = ["sylow", "fsz", "--p", "5", "--q", "5", "--j", "1"]
HEADLINE_ROWS = [
    {"u": "identity", "counts": {"1": 250000, "2": 250000, "3": 250000, "4": 250000}},
    {"u": "U", "counts": {"1": 0, "2": 62500, "3": 62500, "4": 0}},
]

# Every end-to-end figure a run prints.  BENCHMARK.json gates a subset: the
# cold first pass is one sample per run, too noisy on a shared machine to
# bound, and fail_ratio is 0 when the program is right, so it is carried by
# the result's "attempted" and "failed".
E2E_UNITS = {"setup_s": "s", "first_pass_s": "s", "wall_s": "s", "peak_rss_mb": "MiB",
             "fail_ratio": "ratio"}

USAGE_ERROR = 2
CHECK_FAILED = 1


class SetupError(Exception):
    """The checkout cannot be benchmarked (missing source tree or config)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_program() -> None:
    """Put the checkout's src/ first on the path and import fsz_lab from it."""
    if not (SRC / "fsz_lab" / "__init__.py").is_file():
        raise SetupError(f"no fsz_lab source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import fsz_lab

    if Path(fsz_lab.__file__).resolve().parent != (SRC / "fsz_lab").resolve():
        raise SetupError(f"fsz_lab was imported from {fsz_lab.__file__}, not from {SRC}")


def load_config() -> tuple[dict, dict]:
    """BENCHMARK.json and the layer map, checked to name the same per-layer metrics."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        layer_map = json.loads((HERE / "layer_map.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read the benchmark configuration: {exc}") from exc
    names = [m["name"] for m in bench["per_layer"]]
    if set(names) != set(layer_map["metrics"]):
        raise SetupError("BENCHMARK.json per_layer and perfbench/layer_map.json disagree")
    return bench, layer_map


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workload_threads(name: str) -> int:
    # scan is the only parallel workload; it runs at one thread per CPU
    return nproc() if name == "scan" else 1


# -- provenance ---------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fsz_lab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "threads": workload_threads(workload),
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- timing helpers -----------------------------------------------------------------


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                          text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SetupError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return t1 - t0


def timed_pass(wl, inputs, checks) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = wl.run_pass(inputs, checks)
    return time.perf_counter() - t0, out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- end-to-end run -------------------------------------------------------------------


def run_e2e(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup_samples = [probe_setup(name, seed) for _ in range(SETUP_PROBES)]

    import workloads

    wl = workloads.WORKLOADS[name]
    checks = workloads.Checks()
    t0 = time.perf_counter()
    inputs = wl.setup(seed, workload_threads(name))
    in_process_setup = time.perf_counter() - t0

    first, _ = timed_pass(wl, inputs, checks)
    warm: list[float] = []
    window = time.perf_counter()
    while True:
        dt, _ = timed_pass(wl, inputs, checks)
        warm.append(dt)
        if checks.failed:
            break
        used = time.perf_counter() - window
        if len(warm) >= MIN_WARM and used + dt > seconds:
            break

    values = {
        "setup_s": statistics.median(setup_samples),
        "first_pass_s": first,
        "wall_s": statistics.median(warm),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "setup_s": setup_samples,
        "in_process_setup_s": in_process_setup,
        "first_pass_s": [first],
        "wall_s": warm,
    }
    counts = {"setup_s": len(setup_samples), "first_pass_s": 1, "wall_s": len(warm), "peak_rss_mb": 1}
    return values, {"samples": samples, "sample_counts": counts, "checks": checks}


# -- traced run --------------------------------------------------------------------------


def traced_pass(wl, inputs, checks):
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        tracer.wrap("bench.pass", wl.run_pass, span=True)(inputs, checks)
        dt = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return dt, tracer


def repeat_counts(tracer) -> dict:
    stats = tracer.stats()
    counts = {f"{name}.calls": st[0] for name, st in stats.items()}
    counts["fsz.scan.elems"] = tracer.scan_elems
    return counts


def parallel_metrics(tracer) -> dict:
    spans = tracer.spans()
    busy = [t1 - t0 for _, name, t0, t1, _, _ in spans if name == "parallel.partition"]
    pools = {sid: t1 - t0 for sid, name, t0, t1, _, _ in spans if name == "parallel.run_partitioned"}
    capacity = sum(pools[sid] * workers for sid, workers in tracer.pools)
    return {
        "parallel.partitions": len(busy),
        "parallel.partition_busy_max_s": max(busy, default=0.0),
        "parallel.partition_busy_min_s": min(busy, default=0.0),
        "parallel.idle_s": capacity - sum(busy),
    }


def cli_metrics(checks) -> dict:
    """Fresh-process import time of fsz_lab.cli and wall time of the headline command."""
    env = child_env()
    import_code = ("import time; t = time.perf_counter(); import fsz_lab.cli; "
                   "print(time.perf_counter() - t)")
    imports, headline = [], []
    for _ in range(CLI_REPEATS):
        out = subprocess.run([sys.executable, "-c", import_code], env=env, cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode != 0:
            raise SetupError(f"importing fsz_lab.cli failed: {out.stderr.strip()}")
        imports.append(float(out.stdout))
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "fsz_lab.cli", "--threads", "1", *HEADLINE],
                             env=env, cwd=ROOT, capture_output=True, text=True)
        headline.append(time.perf_counter() - t0)
        doc = json.loads(out.stdout) if out.returncode == 0 else {}
        checks.expect(doc.get("rows") == HEADLINE_ROWS and doc.get("witness") == "U",
                      "cli headline output")
    return {"cli.import_s": statistics.median(imports), "cli.headline_s": statistics.median(headline)}


def run_traced(name: str, seed: int, layer_map: dict) -> tuple[dict, dict]:
    import workloads

    wl = workloads.WORKLOADS[name]
    checks = workloads.Checks()
    threads = workload_threads(name)
    inputs = wl.setup(seed, threads)
    timed_pass(wl, inputs, checks)  # cold: fill caches before anything is compared
    untraced, n_out = timed_pass(wl, inputs, checks)

    # two traced passes from the same state must repeat every exact count
    dt_a, tr_a = traced_pass(wl, inputs, checks)
    dt_b, tr_b = traced_pass(wl, inputs, checks)
    counts_a, counts_b = repeat_counts(tr_a), repeat_counts(tr_b)
    checks.expect(counts_a == counts_b, "traced counts repeat")

    # counts are taken from pass A (B repeats them); times are the mean of A and B
    values: dict = {}
    stats_a, stats_b = tr_a.stats(), tr_b.stats()
    for metric in layer_map["metrics"]:
        key, _, kind = metric.rpartition(".")
        calls = stats_a.get(key, [0])[0]
        self_s = statistics.mean(s.get(key, [0, 0.0, 0.0])[2] for s in (stats_a, stats_b))
        if kind == "calls":
            values[metric] = calls
        elif kind == "self_s":
            values[metric] = self_s
        elif kind == "us_per_call":
            values[metric] = 1e6 * self_s / calls if calls else 0.0
    values["fsz.beta_linear.central_s"] = statistics.mean((tr_a.central_s, tr_b.central_s))
    values["fsz.scan.elems"] = tr_a.scan_elems
    par_a, par_b = parallel_metrics(tr_a), parallel_metrics(tr_b)
    for key in par_a:
        values[key] = statistics.mean((par_a[key], par_b[key]))
    values["parallel.partitions"] = par_a["parallel.partitions"]
    values["parallel.threads"] = threads
    values["trace.overhead_ratio"] = statistics.mean((dt_a, dt_b)) / untraced

    extra: dict = {"untraced_pass_s": untraced, "traced_pass_s": [dt_a, dt_b]}
    if name == "scan":
        # thread count must never change a result
        one_checks = workloads.Checks()
        t0 = time.perf_counter()
        one_out = wl.run_pass(inputs, one_checks, threads=1)
        one = time.perf_counter() - t0
        checks.expect(one_checks.failed == 0 and one_out == n_out, "scan result at 1 thread")
        elems = tr_a.scan_elems
        values["fsz.scan.elems_per_s_1t"] = elems / one
        values["fsz.scan.elems_per_s_nt"] = elems / untraced
        values["parallel.scaling_eff"] = one / (threads * untraced)
        extra["one_thread_pass_s"] = one
    else:
        for metric in ("fsz.scan.elems_per_s_1t", "fsz.scan.elems_per_s_nt", "parallel.scaling_eff"):
            values[metric] = 0.0
    values.update(cli_metrics(checks))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{name}-seed{seed}.jsonl"
    tr_a.write_spans(spans_path, {"workload": name, "seed": seed})
    extra["spans"] = str(spans_path.relative_to(ROOT))
    missing = set(layer_map["metrics"]) - set(values)
    if missing:
        raise SetupError(f"no value computed for {sorted(missing)}")
    return values, {"samples": extra, "checks": checks}


# -- entry points -------------------------------------------------------------------------


def run_one(args, bench: dict, layer_map: dict) -> int:
    if args.trace:
        values, info = run_traced(args.workload, args.seed, layer_map)
        declared = bench["per_layer"]
    else:
        values, info = run_e2e(args.workload, args.seed, args.seconds)
        declared = bench["end_to_end"]
    checks = info["checks"]
    report = {
        "report": provenance(args.workload, args.seed),
        "samples": info["samples"],
        "first_failures": checks.first_failures,
    }
    if args.trace:
        report["layer_map"] = layer_map["metrics"]
    else:
        values["fail_ratio"] = checks.failed / checks.attempted if checks.attempted else 1.0
        counts = {**info["sample_counts"], "fail_ratio": checks.attempted}
        report["e2e"] = {name: {"value": values[name], "unit": unit, "n": counts[name]}
                         for name, unit in E2E_UNITS.items()}
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else CHECK_FAILED


def run_all(args, bench: dict) -> int:
    """Each workload in its own interpreter, then one table of all results."""
    results = {}
    for name in (w["name"] for w in bench["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode not in (0, CHECK_FAILED) or len(lines) < 2:
            sys.stderr.write(out.stderr)
            raise SetupError(f"workload {name} exited with {out.returncode}")
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = result
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        shown = report.get("e2e") or {m: {**v, "n": 1} for m, v in result["metrics"].items()}
        for metric, mv in shown.items():
            print(f"   {metric:<36} {mv['value']:>14.6g} {mv['unit']:<6} (n={mv['n']})")
    total = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(total))
    return 0 if total["correct"] else CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="warm-pass window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_program()
        bench, layer_map = load_config()
        names = [w["name"] for w in bench["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise SetupError(f"unknown workload {args.workload!r}; expected one of {names} or all")
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.probe_setup:
            import workloads

            workloads.WORKLOADS[args.workload].setup(args.seed, workload_threads(args.workload))
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args, bench)
        return run_one(args, bench, layer_map)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
