"""Runs one workload's passes in a process of its own and reports timings.

Usage (normally started by run.py):
    python3 benchmarks/worker.py MANIFEST RESULT

MANIFEST is a JSON file written by run.py: the source directory, the
operations and the run's settings.  RESULT receives pass times, raw and
corrected for the host's speed (calibrate.py), the peak resident memory
of this process, per-operation outcomes and, for a traced run, per-layer
figures.  Only the operations themselves are timed; their outcomes are
collected between passes.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Runner:
    """Runs operations through the package's public entry points."""

    def __init__(self, package, ops, tracer=None):
        self.pkg = package
        self.ops = ops
        self.tracer = tracer
        self.clock = None

    def run_pass(self, out_root):
        """One pass over every operation; returns raw results per op.

        Each operation is timed on its own between calibration kernel
        runs (calibrate.py): ``self.op_seconds`` receives its wall time
        and ``self.op_corrected`` the time corrected for the host's speed.
        verify_gate calls ``run_criteria(name)`` once per criterion, which
        runs the same code as one ``run_criteria()`` call.
        """
        if self.clock is None:
            self.clock = calibrate.Clock()
        results = []
        self.op_seconds, self.op_corrected = {}, {}
        for op in self.ops:
            if self.tracer is not None:
                model = None if op["config"] is None else op["config"].get("model", op["kind"])
                self.tracer.enter_scenario(op["name"], model)
            out = Path(out_root) / op["name"]
            if op["kind"] == "criterion":
                checks, raw, corrected = self.clock.time(self.pkg.acceptance.run_criteria,
                                                         op["name"])
                results.extend(("criterion", r) for r in checks)
            elif op["kind"] == "interaction":
                states, raw, corrected = self.clock.time(self.interaction, op["config"])
                results.append(("interaction", states))
            else:
                code, raw, corrected = self.clock.time(
                    self.pkg.cli.main,
                    [op["kind"], "--config", op["path"], "--out-dir", str(out)])
                results.append(("cli", code))
            self.op_seconds[op["name"]] = raw
            self.op_corrected[op["name"]] = corrected
        return results

    def interaction(self, spec):
        """The coupled pair-interaction form through the library API."""
        import numpy as np

        coupled, numkit = self.pkg.coupled, self.pkg.numkit

        def rotation(angle):
            c, s = np.cos(angle), np.sin(angle)
            return np.array([[c, -s], [s, c]])

        gen = coupled.interaction_generator(
            spec["level_rates"],
            {(src, dst): rate for src, dst, rate in spec["couplings"]},
            rotation(spec["angle_a"]), rotation(spec["angle_b"]),
        )
        traj = numkit.ode_evolve(gen.matrix, np.array(spec["initial_state"]),
                                 0.0, spec["t1"], spec["dt"])
        return traj.states


def outcome(op, kind, raw, out_root):
    """Reduce one operation's raw result to (fingerprint, failure or None).

    The fingerprint must repeat exactly from pass to pass.
    """
    if kind == "criterion":
        values = [repr(s.value) for s in raw.subchecks]
        failure = None if raw.passed else "criterion %s failed" % raw.name
        return "|".join(values), failure
    if kind == "interaction":
        import numpy as np

        out = Path(out_root) / op["name"]
        out.mkdir(parents=True, exist_ok=True)
        np.save(out / "states.npy", raw)
        return hashlib.sha256(raw.tobytes()).hexdigest(), None
    if raw != 0:
        return None, "exit code %r" % raw
    out = Path(out_root) / op["name"]
    report = json.loads((out / "report.json").read_text())
    failed = [c["name"] for c in report["checks"] if c["passed"] is False]
    failure = "report checks failed: %s" % ", ".join(failed) if failed else None
    return _digest(out / "series.csv"), failure


def main(manifest_path, result_path):
    manifest = json.loads(Path(manifest_path).read_text())
    sys.path.insert(0, manifest["src"])
    import epiqmap
    import epiqmap.acceptance
    import epiqmap.cli

    work = Path(manifest["work"])
    ops = manifest["ops"]
    op_names = [op["name"] for op in ops]
    tracer = uninstall = None
    if manifest["trace"]:
        import spans as tracing
        tracer = tracing.Tracer()
    runner = Runner(epiqmap, ops, tracer)

    status = {}  # op name -> {"attempted", "failed", "reasons"}
    first = {}

    def record(results, out_root):
        for k, (kind, raw) in enumerate(results):
            name = raw.name if kind == "criterion" else op_names[k]
            op = ops[op_names.index(name)]
            fingerprint, failure = outcome(op, kind, raw, out_root)
            entry = status.setdefault(name, {"attempted": 0, "failed": 0, "reasons": []})
            entry["attempted"] += 1
            if failure is None and name in first and fingerprint != first[name]:
                failure = "output differs from the first pass"
            first.setdefault(name, fingerprint)
            if failure is not None:
                entry["failed"] += 1
                if failure not in entry["reasons"]:
                    entry["reasons"].append(failure)
        seen = {raw.name if kind == "criterion" else op_names[k]
                for k, (kind, raw) in enumerate(results)}
        for name in set(op_names) - seen:
            entry = status.setdefault(name, {"attempted": 0, "failed": 0, "reasons": []})
            entry["attempted"] += 1
            entry["failed"] += 1
            entry["reasons"].append("operation produced no result")

    # warm-up pass: fills caches and finishes lazy set-up; its outputs are
    # the reference the timed passes must reproduce byte for byte
    record(runner.run_pass(work / "warm"), work / "warm")

    seconds = manifest["seconds"]
    min_passes = manifest["min_passes"]
    plain, corrected, traced, layers, criterion_seconds = [], [], [], [], {}
    began = time.perf_counter()
    while True:
        modes = [False, True] if tracer is not None else [False]
        for traced_pass in modes:
            if traced_pass:
                tracer.reset()
                uninstall = tracing.install(tracer, epiqmap)
            try:
                results = runner.run_pass(work / "pass")
            finally:
                if uninstall is not None:
                    uninstall()
                    uninstall = None
            record(results, work / "pass")
            # a pass's time is the sum of its operations' times; the
            # calibration kernel runs between them are left out
            elapsed = sum(runner.op_seconds.values())
            if traced_pass:
                traced.append(elapsed)
                metrics, fired = tracer.layer_metrics()
                layers.append({"metrics": metrics, "fired": sorted(fired)})
            else:
                plain.append(elapsed)
                corrected.append(sum(runner.op_corrected.values()))
                for kind, raw in results:
                    if kind == "criterion":
                        criterion_seconds.setdefault(raw.name, []).append(raw.seconds)
        done = time.perf_counter() - began >= seconds
        if done and len(plain) >= min_passes:
            break

    result = {
        "pass_seconds": plain,
        "corrected_pass_seconds": corrected,
        "traced_pass_seconds": traced,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "status": status,
        "layers": layers,
        "criterion_seconds": {k: statistics.median(v) for k, v in criterion_seconds.items()},
    }
    if tracer is not None:
        tracer.write(manifest["trace_out"])
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
