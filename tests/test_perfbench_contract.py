"""The benchmark's traced run (perfbench/spans.py) replaces package
functions and methods by owner and attribute name, and wraps the solver's
fixed-point loop.  These checks keep those names where it looks for them,
so that moving a method into a base class cannot break a traced run."""

import hashlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import riskctmdp.solver
from riskctmdp import cli, gen_example, jsonio, solve_ctmdp

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
GOLDEN = Path(__file__).parent / "golden"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_trace_targets_are_own_attributes():
    for name, owner, attr, _ in _load_spans().TARGETS:
        assert attr in owner.__dict__, f"{name}: {attr} not defined on {owner}"


def test_fixed_point_loop_takes_sweep_first():
    params = list(inspect.signature(riskctmdp.solver._iterate).parameters)
    assert params[0] == "sweep"


def test_fixed_point_loop_is_a_plain_function():
    """The tracer's wrapper carries `__wrapped__`, and the benchmark's
    self-test checks that none is left after uninstalling it."""
    assert not hasattr(riskctmdp.solver._iterate, "__wrapped__")


@pytest.mark.parametrize("kind, params", [
    ("two_state", {"q": 1, "c": 0.99}),
    ("birth_death", {"levels": 63, "birth": 3, "death": 1, "cost": 1}),
], ids=["two_state", "birth_death-divergent"])
def test_counted_sweeps_equal_iterations(monkeypatch, kind, params):
    """The traced run counts calls of the sweep that solver._iterate
    receives and requires the count to equal the report's iterations."""
    calls = 0
    iterate = riskctmdp.solver._iterate

    def counted(sweep, *args, **kwargs):
        def counting(v):
            nonlocal calls
            calls += 1
            return sweep(v)
        return iterate(counting, *args, **kwargs)
    monkeypatch.setattr(riskctmdp.solver, "_iterate", counted)
    report, _ = solve_ctmdp(gen_example(kind, params, 0))
    assert calls == report.iterations > 1


@pytest.mark.parametrize("command, to_dict", [
    ("validate", "model.to_dict"),
    ("reduce", "reduction.to_dict"),
], ids=["validate", "reduce"])
def test_tracer_sees_each_io_layer(tmp_path, capsys, command, to_dict):
    """The traced run's per-layer figures for parse, validate, to_dict and
    emit come from these spans; each command must make exactly one."""
    path = tmp_path / "model.json"
    path.write_text(jsonio.dumps(gen_example(
        "random", {"n": 8, "m": 2}, 3).to_dict()), encoding="utf-8")
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main([command, str(path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = [span.name for span in tracer.spans]
    for name in ("jsonio.loads", "model.validate_model", to_dict,
                 "jsonio.dumps"):
        assert names.count(name) == 1, (name, names)


def _traced_main(argv):
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        status = cli.main(argv)
    finally:
        tracer.uninstall()
    return status, tracer


def test_tracer_sees_each_solver_and_simulate_layer(tmp_path, capsys):
    """The commands import the solver and the simulator when they run, and
    must still call them through the names the tracer wraps: the traced run
    reads these spans, the counted sweeps and the recorded Monte Carlo
    calls."""
    model = str(GOLDEN / "two_state.model.json")
    policy = str(GOLDEN / "two_state.policy.json")
    out = tmp_path / "report.json"

    def names(tracer):
        return [span.name for span in tracer.spans]

    status, tracer = _traced_main(["solve", model, "--out", str(out)])
    assert status == 0
    assert names(tracer).count("solver.solve_ctmdp") == 1
    sweeps = sum(span.counts.get("sweeps", 0) for span in tracer.spans
                 if span.name == "solver.value_iterate")
    assert sweeps == jsonio.loads(out.read_text())["iterations"] > 0

    status, tracer = _traced_main(["evaluate", model, "--policy", policy,
                                   "--out", str(out)])
    assert status == 0
    for name in ("solver.evaluate_policy_linear",
                 "solver.evaluate_policy_iterative"):
        assert names(tracer).count(name) == 1, (name, names(tracer))

    status, tracer = _traced_main(["simulate", model, "--policy", policy,
                                   "--n", "100", "--out", str(out)])
    assert status == 0
    n_states = len(jsonio.loads(out.read_text())["estimates"])
    assert names(tracer).count("simulate.estimate_value_mc") == n_states
    assert [call["x0"] for call in tracer.mc_calls] == list(range(n_states))
    assert {"master_seed", "max_jumps"} <= set(tracer.mc_calls[0])

    status, tracer = _traced_main(["oracle", model, "--horizon", "3",
                                   "--out", str(out)])
    assert status == 0
    assert names(tracer).count("solver.finite_horizon_oracle") == 3
    capsys.readouterr()


def _load_inputs():
    """perfbench/inputs.py, loaded as _load_spans loads spans.py; its
    sibling `gate` is importable only while it loads."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  SPANS.with_name("inputs.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(SPANS.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SPANS.parent))
        del sys.modules[spec.name]
        sys.modules.pop("gate", None)
    return module


# sha256 of every file inputs.build_workload writes at seed 18, recorded
# at 1aaf046, before the entry tables became jsonio.Tables.  The set-up
# policy files were recorded again when the reduction moved to the
# embedded jump chain: they differ from the earlier ones in `iterations`
# alone (20 -> 14 and 12 for verify random0 and random1, 20 -> 9 and 2 for
# simulate pure_birth and two_state).
INPUT_DIGESTS = {
    "solve": {
        "birth_death.json":
            "6b1f60ba09ef1c8c2323be17695058a1523a2055ae17e12a2cd9e424fe10a9da",
        "dense.json":
            "d1081ea93ca55dcccbfcbb3fd0482713d3308634c115ed8aa8d2126cfe410246",
        "divergent.json":
            "faa9f95add21109d8737b2fc19a44411faeae78daa80232d84488b2467f77205",
        "near_critical0.json":
            "241080fcfc8ab81213497633254cf4f2a87285d54873ec62a85abd5f7d269835",
        "near_critical1.json":
            "3a0c2dd9d551c35e7456d80129926ac9d20a03c52bcadffd7709ac26ec014db9",
        "near_critical2.json":
            "0835b3199b8a05f6ce8d0560379b21d53edd8facf32ea366ea51a9e517d41910",
        "random0.json":
            "c6cccae71ddf9263f77692a8b669b7ed20f2f7c16cbb558b273d83f79e1e7db4",
        "random1.json":
            "dce3332c35b3b0813dfa7c7b36fe59a2e6441fc6e782a9e868602957a7cb512f",
        "random2.json":
            "afd0d9cd31a409848749f1a20651955fe919292ad3824adbc57a82f92cec3150",
    },
    "verify": {
        "dense.json":
            "b0ad9cf916fd82cf085bc305b955f924043c25175b9bef423df66c304b4d0a25",
        "dense.policy.json":
            "e9a7afadb673249308e4d049a13b0119b098b48f961756d7f7c0e687ff4f931a",
        "oracle.json":
            "37780712ac293ffb90f51b624e9e03279f72a9e572444cf04a2f87e97c659cc0",
        "random0.json":
            "0bcf7f15a29de9840754e1fb732b32325211d22cda54b410179f8de9c2004861",
        "random0.policy.json":
            "33eaf50fe6504de9f78d65301e0b7ea02899bc1db609e0000606204f8348971c",
        "random1.json":
            "9e57dd070c2e0c30395e4c2224e4b322f7c55fa8c9d9fae09a260159f40c9fc6",
        "random1.policy.json":
            "9504052f4237a2bbfad2cc487d056a6a5701d41f859e05596df1fcade8237241",
    },
    "simulate": {
        "long_paths.json":
            "20d398794227c3f69b8873db44169160d01de690ef20b60974ecfffa58418969",
        "long_paths.policy.json":
            "af36183b442fa598cad4cdd78869c03b8662344f633f85ff9e430f3742fc03cb",
        "pure_birth.json":
            "6403e29ee2bc16f178530243b5d127b61e1114646e3454dbed8d83c3d999661b",
        "pure_birth.policy.json":
            "ba21ef3b68b04c3ca8dcc5b7a8b002984bfb57aa894bc5ffec8af6a1586b14ae",
        "two_state.json":
            "f710ce91cd8d31939e5b6297e0eb00371f6a394baaa26244e4d3a30e6f894d47",
        "two_state.policy.json":
            "ce8e2a7ab8e28267065a75538521f5044cc13ed998ebbdacac6461abcc4d90b1",
    },
}


@pytest.mark.parametrize("workload", sorted(INPUT_DIGESTS))
def test_benchmark_inputs_are_pinned(tmp_path, workload):
    """The benchmark times the commands on these files, so a change to how
    models and reports are written must leave their bytes alone."""
    _load_inputs().build_workload(workload, 18, tmp_path)
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.iterdir())}
    assert digests == INPUT_DIGESTS[workload]
