"""End-to-end benchmark of the riskctmdp command line.

    python3 perfbench/run.py --workload solve|verify|simulate --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a source checkout: the package is taken from the
checkout's `src/` directory, never from an installed copy.  Each workload
is a closed loop with one client: the CLI runs as a subprocess, one
command at a time, in rounds over the workload's operations until the
given seconds have passed (at least one round).  Outputs are checked after
the timed interval: the first round against independent references
(gate.py), every later round for byte-identical output.

With --trace 0 the result holds the end-to-end metrics: command times in
units of an adjacent interpreter-plus-numpy start-up (see timed_run), and
set-up time in seconds of a reference host (see set_up).  With --trace 1
the same operations run in-process through `riskctmdp.cli.main(argv)`, each
argv untraced and then traced, and the result holds per-layer metrics from
spans recorded around the package's public functions (spans.py); the spans
are written to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric, the per-class medians, failures and the environment.  `attempted`
and `failed` count the workload's operations only, not the start-up and
probe commands run beside them, whose failures are printed apart.
`correct` is false when any output, probes included, is wrong without the
program saying so (see gate.py).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

SETUP_SLICE = 2.0        # seconds of repeated set-up before and after rounds
STARTUP_PER_ROUND = 8    # trivial `gen` commands timed in each round
IMPORT_PROBES = 5        # interpreter start-ups per import-floor figure
COMMAND_TIMEOUT = 150.0  # seconds; a command that takes longer has failed
STARTUP_ARGS = ["gen", "--kind", "two_state", "--params", '{"q": 4, "c": 1}']
FLOOR_CODE = "import numpy"
# The package's own import time, timed inside an interpreter that has
# already loaded numpy, so that the start-up floor's noise stays out of it.
PKG_IMPORT_CODE = ("import time, numpy; start = time.perf_counter(); "
                   "import riskctmdp.cli; print(time.perf_counter() - start)")
CALIBRATION_REF_S = 0.025  # calibration_s() on the reference host, see set_up

# "floor" is the unit of the start-up floor, see timed_run.
END_TO_END = {
    "wall_rel": "floor",
    "op_geomean_rel": "floor",
    "startup_rel": "floor",
    "setup_s": "s",
}
PER_LAYER = {
    "solver.value_iterate_s": "s",
    "solver.sweeps": "count",
    "solver.sweep_s": "s",
    "solver.infinite_states": "count",
    "solver.residual_s": "s",
    "solver.report_to_dict_s": "s",
    "solver.linear_eval_s": "s",
    "solver.iterative_eval_s": "s",
    "solver.oracle_s": "s",
    "jsonio.loads_s": "s",
    "jsonio.dumps_s": "s",
    "jsonio.bytes_in": "bytes",
    "jsonio.bytes_out": "bytes",
    "model.validate_s": "s",
    "model.to_dict_s": "s",
    "model.parse_policy_s": "s",
    "reduction.build_s": "s",
    "reduction.to_dict_s": "s",
    "simulate.estimate_s": "s",
    "simulate.traj_us": "us",
    "simulate.stream_us": "us",
    "simulate.walk_us": "us",
    "simulate.truncated_fraction": "ratio",
    "simulate.jumps_per_traj": "count",
    "cli.numpy_import_s": "s",
    "cli.pkg_import_s": "s",
    "cli.run_s": "s",
    "cli.trace_overhead_s": "s",
    "cli.self_s": "s",
    "jsonio.self_s": "s",
    "model.self_s": "s",
    "reduction.self_s": "s",
    "solver.self_s": "s",
    "simulate.self_s": "s",
}
# Printed with the end-to-end metrics; per workload, so not in the result.
CLASS_METRICS = {
    "near_critical": "solve_s.near_critical", "random": "solve_s.random",
    "dense": "solve_s.dense", "divergent": "solve_s.divergent",
    "validate": "validate_s", "reduce": "reduce_s",
    "evaluate": "evaluate_s", "oracle": "oracle_s", "simulate": "simulate_s",
}


@dataclass
class Sample:
    seconds: float
    status: int
    digest: str


def _digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return ""


def _load_report(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        return None


def _blas_threads() -> str:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import numpy
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return str(fn())
    return "unknown"


def calibration_s() -> float:
    """Seconds of a fixed piece of in-process work of the kinds set-up does
    (random draws in a Python loop, JSON text, small matrix products), made
    with numpy and the standard library only, so that no change to the
    package can move it."""
    import numpy as np
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    rates = np.zeros((48, 8, 48))
    for x in range(48):
        for a in range(8):
            rates[x, a, rng.integers(0, 48, 6)] += rng.random(6)
    json.loads(json.dumps({"rates": rates.tolist()}))
    kernel, v = rates.reshape(-1, 48), np.ones(48)
    for _ in range(200):
        v = np.maximum((kernel @ v).reshape(48, 8).min(axis=1) * 0.5, 1.0)
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Cli:
    """Runs the CLI as a subprocess with the checkout's sources."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, args: list, out: Path) -> Sample:
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            status = subprocess.run(
                [sys.executable, "-m", "riskctmdp.cli", *args, "--out",
                 str(out)], env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=COMMAND_TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            status = -1
        seconds = time.perf_counter() - start
        return Sample(seconds, status, _digest(out))

    def python_c(self, code: str) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                       stdin=subprocess.DEVNULL, check=True,
                       timeout=COMMAND_TIMEOUT)
        return time.perf_counter() - start

    def python_value(self, code: str) -> float:
        """The number that `code` prints."""
        return float(subprocess.run(
            [sys.executable, "-c", code], env=self.env, cwd=ROOT,
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            check=True, timeout=COMMAND_TIMEOUT).stdout)


def set_up(inputs, name: str, seed: int, directory: Path, times: list):
    """Build the workload into `directory` at least once and for at least
    SETUP_SLICE seconds; returns the workload's ops.

    Appends (seconds, reference seconds) per set-up (input generation plus
    the set-up solves) to `times`.  The host's compute speed can swing by
    half within seconds, so each set-up is also scaled by the calibration
    kernel timed on either side of it: reference seconds are the seconds
    it would take on a host where calibration_s() takes CALIBRATION_REF_S.
    """
    deadline = time.perf_counter() + SETUP_SLICE
    before = calibration_s()
    while True:
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        ops = inputs.build_workload(name, seed, directory)
        seconds = time.perf_counter() - start
        after = calibration_s()
        times.append((seconds, seconds * CALIBRATION_REF_S
                      / statistics.fmean((before, after))))
        before = after
        if time.perf_counter() >= deadline:
            return ops


def gate_ops(gate, ops: list, samples: dict, first_out: dict) -> list:
    """Check every sample; returns (op key, round, message, declared)."""
    failures = []
    for op in ops:
        first = samples[op.key][0]
        report = _load_report(first_out[op.key])
        try:
            verdict = op.check(first.status, report)
        except (KeyError, TypeError, ValueError) as exc:
            verdict = f"check raised {type(exc).__name__}: {exc}"
        declared = gate.is_declared(first.status, report)
        for r, sample in enumerate(samples[op.key]):
            if (sample.status, sample.digest) != (first.status, first.digest):
                failures.append((op.key, r, "output differs from the first "
                                 "run of the same command", False))
            elif verdict:
                failures.append((op.key, r, verdict, declared))
    return failures


def startup_op(inputs, gate):
    from riskctmdp import gen_example
    model = gen_example("two_state", {"q": 4, "c": 1}, 0)
    return inputs.Op("startup", "startup", STARTUP_ARGS,
                     lambda status, report: gate.check_validate(
                         status, report, model))


def timed_run(inputs, gate, workload_ops, seconds: float, directory: Path,
              set_up_again):
    """Rounds of CLI commands, each followed by a floor probe, with a slice
    of repeated set-up after each round (`set_up_again`), so that setup_s
    samples the whole run rather than one moment of it.

    The floor is `python -c "import numpy"`: interpreter plus numpy
    start-up, which no change to the package can move.  The gated metrics
    divide each command's time by the mean of the floor probes on either
    side of it.  On a shared host the speed can swing by half within
    seconds, and the ratio cancels most of that; the seconds are printed
    too.
    """
    cli = Cli()
    # Start-up probes spread evenly among the workload's commands, so that
    # they sample the whole round.
    startup = startup_op(inputs, gate)
    spread = [((j + 0.5) / STARTUP_PER_ROUND, startup)
              for j in range(STARTUP_PER_ROUND)]
    spread += [((i + 0.5) / len(workload_ops), op)
               for i, op in enumerate(workload_ops)]
    ops = [op for _, op in sorted(spread, key=lambda pair: pair[0])]
    unique = {op.key: op for op in ops}
    samples = {key: [] for key in unique}
    rel = {key: [] for key in unique}
    first_out = {key: directory / f"first.{key}.json" for key in unique}
    later = directory / "later.json"
    cli.run(STARTUP_ARGS, later)  # warm the file cache before timing
    floors = [cli.python_c(FLOOR_CODE)]
    rounds, elapsed = 0, 0.0
    while elapsed < seconds:
        start = time.perf_counter()
        for op in ops:
            out = later if samples[op.key] else first_out[op.key]
            sample = cli.run(op.args, out)
            floors.append(cli.python_c(FLOOR_CODE))
            samples[op.key].append(sample)
            rel[op.key].append(sample.seconds / statistics.fmean(floors[-2:]))
        rounds += 1
        elapsed += time.perf_counter() - start
        set_up_again()
    failures = gate_ops(gate, workload_ops, samples, first_out)
    probe_failures = gate_ops(gate, [startup], samples, first_out)

    def medians(table):
        return [statistics.median(table[op.key]) for op in workload_ops]

    seconds_of = {key: [s.seconds for s in v] for key, v in samples.items()}
    metrics = {
        "wall_rel": sum(medians(rel)),
        "op_geomean_rel": math.exp(statistics.fmean(
            map(math.log, medians(rel)))),
        "startup_rel": statistics.median(rel["startup"]),
    }
    extra = {
        "floor_s": (statistics.median(floors), "s", len(floors)),
        "wall_s": (sum(medians(seconds_of)), "s", rounds),
        "startup_s": (statistics.median(seconds_of["startup"]), "s",
                      len(samples["startup"])),
    }
    classes = {}
    for op in workload_ops:
        classes.setdefault(op.klass, []).extend(seconds_of[op.key])
    for klass, values in classes.items():
        extra[CLASS_METRICS[klass]] = (statistics.median(values), "s",
                                       len(values))
    sim_ops = [op for op in workload_ops if op.trajectories]
    if sim_ops:
        paths = sum(op.trajectories * len(samples[op.key]) for op in sim_ops)
        busy = sum(sum(seconds_of[op.key]) for op in sim_ops)
        extra["traj_per_s"] = (paths / busy, "1/s", paths)
    attempted = sum(len(samples[op.key]) for op in workload_ops)
    return metrics, extra, failures, probe_failures, attempted, rounds


def traced_run(inputs, gate, workload_ops, seconds: float, directory: Path,
               trace_path: Path):
    import riskctmdp
    import spans
    from riskctmdp import cli

    runner = Cli()
    numpy_s, pkg_s = [], []
    for _ in range(IMPORT_PROBES):
        numpy_s.append(runner.python_c(FLOOR_CODE))
        pkg_s.append(runner.python_value(PKG_IMPORT_CODE))

    probes = inputs.probe_ops(directory / "probe")
    ops = workload_ops + probes
    untraced = {op.key: [] for op in ops}
    traced = {op.key: [] for op in ops}
    first_out = {op.key: directory / f"first.{op.key}.json" for op in ops}
    later = directory / "later.json"
    tracers, sweeps = [], {}

    def run_untraced(op):
        out = later if untraced[op.key] else first_out[op.key]
        out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        status = cli.main(op.args + ["--out", str(out)])
        untraced[op.key].append(
            Sample(time.perf_counter() - t0, status, _digest(out)))

    def run_traced(op, tracer):
        tracer.op = f"{len(tracers)}:{op.key}"
        later.unlink(missing_ok=True)
        first_span = len(tracer.spans)
        tracer.install()
        try:
            status = tracer.wrap("cli.main", cli.main)(
                op.args + ["--out", str(later)])
        finally:
            tracer.uninstall()
        traced[op.key].append(Sample(tracer.spans[first_span].duration,
                                     status, _digest(later)))
        if op.args[0] == "solve":
            counted = sum(s.counts.get("sweeps", 0) for s in tracer.spans
                          if s.op == tracer.op
                          and s.name == "solver.value_iterate")
            sweeps.setdefault(op.key, (counted, (_load_report(later) or {})
                                       .get("iterations")))

    # Each argv runs untraced and traced back to back, alternating which
    # goes first, so drift and warm-up cancel out of the overhead figure.
    # The stream cost is measured once per pass, right after it, so that
    # walk_us subtracts a figure taken at the same host speed.
    start = time.perf_counter()
    stream = []
    while True:
        tracer = spans.Tracer()
        for op in ops:
            if len(tracers) % 2:
                run_traced(op, tracer)
                run_untraced(op)
            else:
                run_untraced(op)
                run_traced(op, tracer)
        tracers.append(tracer)
        mc = tracer.mc_calls[0]
        stream.append(spans.stream_us(mc["master_seed"], mc["max_jumps"]))
        if time.perf_counter() - start >= seconds:
            break

    samples = {key: untraced[key] + traced[key] for key in untraced}
    failures = gate_ops(gate, workload_ops, samples, first_out)
    probe_failures = gate_ops(gate, probes, samples, first_out)
    for key, (counted, reported) in sweeps.items():
        if counted != reported:
            (probe_failures if key.startswith("probe.") else failures).append(
                (key, 0, f"counted sweeps {counted} differ from reported "
                 f"iterations {reported}", False))

    per_pass = [spans.layer_metrics(t) for t in tracers]
    metrics = {name: statistics.median(p[name] for p in per_pass)
               for name in per_pass[0]}
    jumps, jump_paths = spans.jumps_per_trajectory(tracers[0].mc_calls)
    run_s = sum(statistics.median(s.seconds for s in untraced[k])
                for k in untraced)
    overhead = sum(statistics.median(t.seconds - u.seconds for t, u in
                                     zip(traced[k], untraced[k]))
                   for k in untraced)
    metrics.update({
        "simulate.stream_us": statistics.median(stream),
        "simulate.walk_us": statistics.median(
            p["simulate.traj_us"] - us for p, us in zip(per_pass, stream)),
        "simulate.jumps_per_traj": jumps,
        "cli.numpy_import_s": statistics.median(numpy_s),
        "cli.pkg_import_s": statistics.median(pkg_s),
        "cli.run_s": run_s,
        "cli.trace_overhead_s": overhead,
    })
    OUT.mkdir(exist_ok=True)
    spans.write_spans(tracers, trace_path)
    passes = len(tracers)
    extra = {
        "passes": (passes, "count", passes),
        "spans": (sum(len(t.spans) for t in tracers), "count", passes),
        "simulate.trajectories": (metrics.pop("simulate.trajectories"),
                                  "count", passes),
        "simulate.jumps_sample": (jump_paths, "count", 1),
        "riskctmdp": (str(Path(riskctmdp.__file__).parent), "", 1),
    }
    for key, (counted, reported) in sweeps.items():
        extra[f"solver.sweeps[{key}]"] = (counted, "count", 1)
        extra[f"report.iterations[{key}]"] = (reported, "count", 1)
    attempted = sum(len(samples[op.key]) for op in workload_ops)
    return metrics, extra, failures, probe_failures, attempted, passes


def _print_report(args, env, metrics, units, extra, failures,
                  probe_failures, attempted, rounds) -> None:
    print(f"riskctmdp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"rounds={rounds} attempted={attempted} failed={len(failures)} "
          f"fail_ratio={len(failures) / attempted:.6g} "
          f"probe_failed={len(probe_failures)}")
    for label, listed in (("failure", failures),
                          ("probe failure", probe_failures)):
        for key, r, message, declared in listed:
            kind = "declared" if declared else "wrong"
            print(f"{label}: {key} (sample {r + 1}, {kind}): {message}")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    for name, (value, unit, n) in extra.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:32s} {shown} {unit}  (over {n})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "verify", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "riskctmdp" / "cli.py").is_file():
        print(f"error: no riskctmdp sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import riskctmdp
    if SRC not in Path(riskctmdp.__file__).resolve().parents:
        print(f"error: riskctmdp imported from {riskctmdp.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import gate
    import inputs

    directory = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times = []
    try:
        ops = set_up(inputs, args.workload, args.seed, directory / "in",
                     setup_times)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
            (metrics, extra, failures, probe_failures, attempted,
             rounds) = traced_run(
                inputs, gate, ops, args.seconds, directory, trace_path)
            units = PER_LAYER
        else:
            (metrics, extra, failures, probe_failures, attempted,
             rounds) = timed_run(
                inputs, gate, ops, args.seconds, directory,
                lambda: set_up(inputs, args.workload, args.seed,
                               directory / "again", setup_times))
            metrics["setup_s"] = statistics.median(
                scaled for _, scaled in setup_times)
            extra["setup_raw_s"] = (statistics.median(
                seconds for seconds, _ in setup_times), "s", len(setup_times))
            units = END_TO_END
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    _print_report(args, environment(), metrics, units, extra, failures,
                  probe_failures, attempted, rounds)
    result = {
        "correct": not any(not declared for *_, declared
                           in failures + probe_failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
