"""The epiqmap benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):
    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1] [--save RESULTS.jsonl]

Workloads and metrics are declared in BENCHMARK.json; the scenarios are
generated from --seed by workloads.py.  A worker process (worker.py)
runs a warm-up pass and then timed passes over the workload for
--seconds; with --trace 1 it alternates plain and traced passes and the
run reports per-layer figures instead of end-to-end ones.  wall_s and
setup_s are corrected for the host's speed (calibrate.py).  Outputs are
checked against oracles (checks.py) outside the timed region.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it carries
diagnostics: sample counts, quartiles, the wall-time tail, error_rate,
row counts and machine facts.  Exit code 2 means the sources are
missing, 1 that the worker or a check could not run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
TRACES = ROOT / ".bench_traces"

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 7
MIN_PASSES = 3
DEADLINE_S = 170  # the whole run, including set-up and checks


def quartiles(values):
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """The highest order statistic with at least ten samples above it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None, None
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def machine_facts():
    import numpy

    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def startup_seconds(command, env):
    """Seconds from starting command until it prints its "ready" line."""
    t0 = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError("%s exited with %r" % (" ".join(command[:2]), code))
    return elapsed


def setup_times(ops, env):
    """Fresh-interpreter import + parse times, raw and corrected, one per repeat.

    Each probe runs between two runs of a fresh interpreter that only
    imports NumPy, which serve as its host-speed reference (calibrate.py).
    """
    import calibrate

    configs = [op["path"] for op in ops if op["kind"] == "simulate"]
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + configs
    reference = [sys.executable, "-c", calibrate.STARTUP_REFERENCE]
    clock = calibrate.Clock(lambda: startup_seconds(reference, env), calibrate.STARTUP_REF_S)
    raw, corrected = [], []
    for _ in range(SETUP_REPEATS):
        _, seconds, seconds_corrected = clock.measured(
            lambda: (None, startup_seconds(probe, env)))
        raw.append(seconds)
        corrected.append(seconds_corrected)
    return raw, corrected


def run_worker(manifest, work, env, deadline):
    manifest_path = work / "manifest.json"
    result_path = work / "result.json"
    manifest_path.write_text(json.dumps(manifest))
    command = [sys.executable, str(HERE / "worker.py"), str(manifest_path), str(result_path)]
    # the worker's stdout would corrupt our last line; send it to stderr
    proc = subprocess.run(command, env=env, cwd=ROOT, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %r" % proc.returncode)
    return json.loads(result_path.read_text())


def oracle_failures(ops, work, status):
    """Check the last pass's outputs; returns {op name: failure}.

    Operations that already failed in the worker are not checked again.
    """
    import checks
    import worker
    import epiqmap
    import epiqmap.cli

    runner = worker.Runner(epiqmap, [])

    def run_half(op, half_dir):
        if op["kind"] == "interaction":
            return runner.interaction(op["config"])
        return epiqmap.cli.main([op["kind"], "--config", op["path"], "--out-dir", str(half_dir)])

    failures = {}
    for op in ops:
        if status[op["name"]]["failed"]:
            continue
        out = work / "pass" / op["name"]
        try:
            if op["oracle"] == "expm":
                failure = checks.check_expm(op["config"], out)
            elif op["oracle"] == "half_dt":
                failure = checks.check_half_dt(op, out, work / "half" / op["name"], run_half)
            else:  # criteria check themselves against frozen tolerances
                failure = None
            if failure is None and op["kind"] == "simulate":
                failure = checks.check_ratio(out)
        except Exception as exc:  # an oracle that cannot run fails the operation
            failure = "oracle could not run: %r" % exc
        if failure is not None:
            failures[op["name"]] = failure
    return failures


def end_to_end(result, setup):
    """Medians of the times corrected for the host's speed (calibrate.py)."""
    return {
        "wall_s": statistics.median(result["corrected_pass_seconds"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(result, ops, expected, declared):
    """Median per-layer figures over traced passes; returns (metrics, notes).

    A metric whose span is expected on the workload but never fired is
    reported as missing, not as 0; one whose layer the workload does not
    run at all reads 0.
    """
    import spans

    layers = [entry["metrics"] for entry in result["layers"]]
    fired = set().union(*(entry["fired"] for entry in result["layers"]))
    missing_spans = expected - fired
    criteria = {op["name"] for op in ops if op["kind"] == "criterion"}
    metrics, missing, varying = {}, [], []
    for name in declared:
        span = spans.METRIC_SPAN.get(name)
        if name.startswith("acceptance."):
            criterion = name[len("acceptance."):-len("_s")]
            seconds = result["criterion_seconds"]
            if criterion in criteria and criterion not in seconds:
                missing.append(name)
            else:
                metrics[name] = seconds.get(criterion, 0.0)
        elif name == "bench.trace_overhead_s":
            metrics[name] = (statistics.median(result["traced_pass_seconds"])
                             - statistics.median(result["pass_seconds"]))
        elif span in missing_spans or name not in layers[0]:
            missing.append(name)
        elif name in spans.COUNT_METRICS:
            values = {entry[name] for entry in layers}
            if len(values) > 1:
                varying.append(name)
            metrics[name] = layers[-1][name]
        else:
            metrics[name] = statistics.median(entry[name] for entry in layers)
    notes = {
        "traced_passes": len(layers),
        "traced_wall_s": statistics.median(result["traced_pass_seconds"]),
        "self_sum_s": statistics.median(entry["bench.self_sum_s"] for entry in layers),
        "missing": missing,
        "counts_varied": varying,
    }
    return metrics, notes


def measure(args, bench, work, started):
    import workloads

    deadline = started + DEADLINE_S
    ops = workloads.build(args.workload, args.seed, args.scale)
    (work / "configs").mkdir(parents=True)
    for op in ops:
        if op["config"] is not None:
            op["path"] = str(work / "configs" / (op["name"] + ".json"))
            Path(op["path"]).write_text(json.dumps(op["config"], indent=1))

    env = dict(os.environ)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    setup_raw, setup = ([], []) if args.trace else setup_times(ops, env)

    manifest = {
        "src": str(SRC), "work": str(work), "ops": ops, "trace": bool(args.trace),
        "seconds": args.seconds, "min_passes": MIN_PASSES,
        "trace_out": str(TRACES / ("%s-seed%d.npz" % (args.workload, args.seed))),
    }
    if args.trace:
        TRACES.mkdir(exist_ok=True)
    result = run_worker(manifest, work, env, deadline)

    status = result["status"]
    for name, failure in oracle_failures(ops, work, status).items():
        entry = status[name]
        entry["failed"] = entry["attempted"]
        entry["reasons"].append(failure)
    attempted = sum(entry["attempted"] for entry in status.values())
    failed = sum(entry["failed"] for entry in status.values())

    walls = result["corrected_pass_seconds"]
    tail_s, tail_pct = tail(walls)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "wall_samples": len(walls),
        "wall_quartiles_s": quartiles(walls),
        "bench.wall_tail_s": tail_s,
        "wall_tail_percentile": tail_pct,
        "raw_wall_quartiles_s": quartiles(result["pass_seconds"]),
        "setup_samples_s": setup,
        "raw_setup_samples_s": setup_raw,
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "rows": {op["name"]: workloads.rows(op) for op in ops if op["config"] is not None},
        "machine": machine_facts(),
        "failures": {n: e["reasons"] for n, e in status.items() if e["failed"]},
    }

    if args.trace:
        declared = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, notes = per_layer(result, ops, workloads.expected_spans(args.workload, args.scale),
                                  declared)
        diagnostics.update(notes)
        for name in notes["missing"]:
            print("benchmark: per-layer metric %s is missing: its span never fired on %s"
                  % (name, args.workload), file=sys.stderr)
        for name in notes["counts_varied"]:
            print("benchmark: count %s varied between passes" % name, file=sys.stderr)
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = end_to_end(result, setup)
    for name, reasons in diagnostics["failures"].items():
        print("benchmark: %s failed: %s" % (name, "; ".join(reasons)), file=sys.stderr)

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    print(json.dumps({"diagnostics": diagnostics}))
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"result": line, "diagnostics": diagnostics}) + "\n")
    print(json.dumps(line))
    return 0


def main(argv=None):
    # one BLAS thread, here and in every child, set before NumPy loads
    os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))
    import calibrate
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the scenarios' spans (the smoke test uses 0.02)")
    parser.add_argument("--save", help="append the result and diagnostics to this JSONL file")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "epiqmap" / "cli.py").is_file():
        print("benchmark: no package sources at %s" % SRC, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    calibrate.pin()  # the worker and the set-up probes inherit the CPU
    work = WORK / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, bench, work, started)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
