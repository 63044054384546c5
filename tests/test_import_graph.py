"""Each CLI command loads only the package modules it runs, and the
package's public names load on first use.  Both are checked in fresh
interpreters, since a test process has long imported every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).parent / "golden"
MODEL = str(GOLDEN / "two_state.model.json")
POLICY = str(GOLDEN / "two_state.policy.json")

PUBLIC = [
    "CtmdpModel", "DtmdpModel", "ExtReal", "ExtRealDomainError", "INFINITY",
    "McEstimate", "ModelError", "OracleGuardError", "SolveReport",
    "SolverError", "StationaryPolicy", "Trajectory", "ValueFunction",
    "bellman_apply", "build_equivalent_dtmdp", "check_supersolution",
    "estimate_dtmdp_value_mc", "estimate_value_mc",
    "evaluate_policy_iterative", "evaluate_policy_linear", "ext_div",
    "ext_exp", "ext_mul", "ext_sub_clamped", "finite_horizon_oracle",
    "gen_example", "optimality_residual", "parse_policy", "policy_iterate",
    "sample_trajectory", "solve_ctmdp", "trajectory_stream",
    "validate_model", "value_iterate",
]

# the short names of the riskctmdp.* modules loaded, sorted
LOADED = ("sorted(m.split('.', 1)[1] for m in sys.modules "
          "if m.startswith('riskctmdp.'))")


def _python(code: str, *args) -> str:
    """stdout of `python -c code args` with only the sources on the path."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_import_loads_no_module():
    out = _python(f"import json, sys, riskctmdp; print(json.dumps({LOADED}))")
    assert json.loads(out) == []


def test_public_names_resolve_to_their_home_objects():
    out = _python("""
import importlib, json, sys
import riskctmdp
checks = {
    "all": list(riskctmdp.__all__),
    "in_dir": sorted(set(riskctmdp.__all__) - set(dir(riskctmdp))),
    "not_home": [n for n in riskctmdp.__all__
                 if getattr(importlib.import_module(
                     getattr(riskctmdp, n).__module__), n)
                 is not getattr(riskctmdp, n)],
}
star = {}
exec("from riskctmdp import *", star)
checks["star_missing"] = [n for n in riskctmdp.__all__
                          if star.get(n) is not getattr(riskctmdp, n)]
try:
    riskctmdp.no_such_name
except AttributeError as exc:
    checks["unknown"] = str(exc)
from riskctmdp import jsonio
checks["jsonio"] = jsonio is sys.modules["riskctmdp.jsonio"]
print(json.dumps(checks))
""")
    checks = json.loads(out)
    assert checks["all"] == PUBLIC
    assert checks["in_dir"] == []
    assert checks["not_home"] == []
    assert checks["star_missing"] == []
    assert "no_such_name" in checks["unknown"]
    assert checks["jsonio"] is True


BASE = ["cli", "jsonio", "model"]
SOLVE = sorted(BASE + ["reduction", "solver"])


@pytest.mark.parametrize("argv, modules", [
    (["gen", "--kind", "two_state", "--params", '{"q": 4, "c": 1}'], BASE),
    (["validate", MODEL], BASE),
    (["reduce", MODEL], sorted(BASE + ["reduction"])),
    (["solve", MODEL], SOLVE),
    (["evaluate", MODEL, "--policy", POLICY], SOLVE),
    (["oracle", MODEL, "--horizon", "2"], SOLVE),
    (["simulate", MODEL, "--policy", POLICY, "--n", "100"],
     sorted(SOLVE + ["extreal", "simulate"])),
], ids=["gen", "validate", "reduce", "solve", "evaluate", "oracle",
        "simulate"])
def test_command_loads_only_its_modules(tmp_path, argv, modules):
    out = _python(f"""
import json, sys
from riskctmdp import cli
status = cli.main(sys.argv[1:])
print(json.dumps([status, {LOADED}]))
""", *argv, "--out", str(tmp_path / "report.json"))
    assert json.loads(out) == [0, modules]


@pytest.mark.parametrize("name", ["divergent", "infinite"])
def test_solve_leaves_numpy_ma_unloaded(tmp_path, name):
    """Solving a model with infinite states finds their classes without
    np.unique, whose first call imports numpy.ma, a cost of some ms."""
    out = _python("""
import json, sys
from riskctmdp import cli
status = cli.main(sys.argv[1:])
print(json.dumps([status, "numpy.ma" in sys.modules]))
""", "solve", str(GOLDEN / f"{name}.model.json"),
        "--out", str(tmp_path / "report.json"))
    assert json.loads(out) == [0, False]
