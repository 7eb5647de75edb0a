"""The benchmark's own tests: each check accepts the program's real output
and rejects a perturbed copy of it.

Run from the repository root:  python3 -m pytest -q chshbench
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from chshcert import cli  # noqa: E402
from chshcert.simplex import solve_lp  # noqa: E402


def _cli_json(tmp_path, name, argv):
    out = tmp_path / name
    assert cli.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_closed_forms_known_values():
    assert checks.s_ns(1.0, 0.25) == pytest.approx(2.0, abs=1e-15)
    assert checks.s_fac(0.8, 0.5) == pytest.approx(4.0, abs=1e-15)
    assert checks.s_det_lp(0.4) == 4.0
    assert checks.s_tsirelson_biased([0.25] * 4) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    # On the family (P, P, P, 1-3P) with P >= 3/10 the optimum is deterministic.
    assert checks.s_tsirelson_biased([0.31, 0.31, 0.31, 0.07]) == pytest.approx(24 * 0.31 - 4)
    assert checks.g_bound(2.0 * math.sqrt(2), 0.25, "ns") == pytest.approx(1.5 - math.sqrt(2) / 2)


@pytest.mark.parametrize("target", ["lp", "ns", "fac"])
def test_grid_campaign_check(tmp_path, target):
    gs, ps = [0.8], [0.3]
    argv = ["verify", "--target", target, "--g-min", "0.8", "--g-max", "0.8",
            "--g-steps", "1", "--p-min", "0.3", "--p-max", "0.3", "--p-steps", "1",
            "--restarts", "8", "--threads", "1"]
    doc = _cli_json(tmp_path, "v.json", argv)
    assert checks.check_grid_campaign(doc, target, gs, ps) == []

    def perturbed(**fields):
        bad = copy.deepcopy(doc)
        bad["points"][0].update(fields)
        return checks.check_grid_campaign(bad, target, gs, ps)

    val = doc["points"][0]["bound_oracle"]
    closed = doc["points"][0]["bound_closed_form"]
    assert perturbed(bound_oracle=val + 1e-5)          # unsound
    assert perturbed(bound_oracle=val - 2e-3)          # incomplete (or inexact LP)
    assert perturbed(bound_oracle=float("nan"))
    assert perturbed(bound_closed_form=closed + 1e-6)
    assert perturbed(P=0.31)                           # not the requested point
    assert checks.check_grid_campaign({"points": []}, target, gs, ps)
    if target == "lp":
        assert perturbed(bound_oracle=val - 1e-8)      # the LP is exact


def test_quantum_campaign_check(tmp_path):
    doc = _cli_json(tmp_path, "q.json", ["verify", "--target", "quantum", "--samples", "3",
                                         "--restarts", "4", "--threads", "1"])
    assert checks.check_quantum_campaign(doc, 3) == []

    def perturbed(**fields):
        bad = copy.deepcopy(doc)
        bad["points"][1].update(fields)
        return checks.check_quantum_campaign(bad, 3)

    pt = doc["points"][1]
    assert perturbed(bound_oracle=pt["bound_oracle"] + 1e-5)
    assert perturbed(bound_oracle=pt["bound_oracle"] - 2e-3)
    assert perturbed(bound_closed_form=pt["bound_closed_form"] + 1e-6)
    assert perturbed(p_bar=[pt["p_bar"][0] + 0.01] + pt["p_bar"][1:])
    assert checks.check_quantum_campaign(doc, 4)       # a point is missing


@pytest.mark.parametrize("kind,G,P", [("general", 0.8, 0.3), ("fac-low", 0.8, 0.4)])
def test_model_check(tmp_path, kind, G, P):
    doc = _cli_json(tmp_path, "m.json", ["model", "--kind", kind, "--g", str(G), "--p", str(P)])
    assert checks.check_model(doc, kind, G, P) == []
    assert checks.check_model(doc, kind, G + 0.01, P)  # G, hence S, differs
    assert checks.check_model(doc, kind, G, P + 0.01)

    bad = copy.deepcopy(doc)
    bad["components"][0]["box"][0] = [x + (1e-6 if i == 0 else 0.0)
                                      for i, x in enumerate(bad["components"][0]["box"][0])]
    assert checks.check_model(bad, kind, G, P)         # unnormalized box
    bad = copy.deepcopy(doc)
    bad["components"][0]["weight"] += 1e-6
    assert checks.check_model(bad, kind, G, P)
    bad = copy.deepcopy(doc)
    bad["components"][1]["settings"][0] = float("nan")
    assert checks.check_model(bad, kind, G, P)


def test_fac_model_check_needs_factorizable_settings(tmp_path):
    doc = _cli_json(tmp_path, "m.json", ["model", "--kind", "general", "--g", "0.8",
                                         "--p", "0.3"])
    assert checks.check_model(doc, "fac-low", 0.8, 0.3)


def test_simulation_check(tmp_path):
    n = 100_000
    model = tmp_path / "m.json"
    assert cli.main(["model", "--kind", "general", "--g", "0.8", "--p", "0.3",
                     "--out", str(model)]) == 0
    model_doc = json.loads(model.read_text())
    report = _cli_json(tmp_path, "r.json", ["simulate", "--model", str(model), "--trials",
                                            str(n), "--seed", "3", "--p-assumed", "0.3"])
    assert checks.check_simulation(report, model_doc, n, 0.3, "ns") == []
    exp = checks.simulation_expectations(model_doc, n)
    assert exp["S"] == pytest.approx(checks.s_ns(0.8, 0.3), abs=1e-12)

    def perturbed(**fields):
        return checks.check_simulation({**report, **fields}, model_doc, n, 0.3, "ns")

    assert perturbed(S_hat=exp["S"] + 6 * exp["sigma_S"])
    assert perturbed(S_stderr=report["S_stderr"] * 1.1)
    freqs = list(report["input_freqs"])
    freqs[2] = 0.25 + 6 * math.sqrt(0.1875 / n)
    assert perturbed(input_freqs=freqs)
    acc = exp["accuracy"]
    assert perturbed(eve_accuracy=acc + 6 * math.sqrt(acc * (1 - acc) / n))
    assert perturbed(certified_bits=report["certified_bits"] * (1 + 1e-6) + 1e-6)
    # Certification under the wrong adversary class gives other bits.
    assert checks.check_simulation(report, model_doc, n, 0.3, "fac")


@pytest.mark.parametrize("shape", ["det", "ns", "fac"])
def test_lp_check(shape):
    rng = np.random.default_rng(5)
    if shape == "det":
        lp = layers.det_lp(0.3)
    elif shape == "ns":
        g = rng.uniform(0.5, 1.0, layers.L)
        g[0] = 0.8
        lp = layers.ns_lp(rng.uniform(-1, 1, (layers.L, 4)), g, 0.8, 0.3)
    else:
        u, v = rng.uniform(0, 1, (2, layers.L))
        q = np.stack([u * v, u * (1 - v), (1 - u) * v, (1 - u) * (1 - v)], axis=1)
        lp = layers.fac_lp(q, 0.8)
    sol = solve_lp(lp["c"], A_ub=lp["A_ub"], b_ub=lp["b_ub"], A_eq=lp["A_eq"],
                   b_eq=lp["b_eq"], maximize=True)
    ref = checks.linprog_max(lp)
    assert checks.check_lp_solution(lp, sol.x, sol.fun, ref, shape) == []
    if shape == "det":
        assert ref == pytest.approx(checks.s_det_lp(0.3), abs=1e-9)
    assert checks.check_lp_solution(lp, sol.x, sol.fun + 1e-6, ref, shape)
    assert checks.check_lp_solution(lp, sol.x * 1.01, sol.fun, ref, shape)
    assert checks.check_lp_solution(lp, sol.x, sol.fun, ref + 1e-3, shape)


def test_self_times_subtract_the_union_of_children():
    S = spans.Span
    recorded = [
        S(1, None, "root", 0.0, 10.0, 1),
        S(2, 1, "child", 1.0, 3.0, 1),
        S(3, 1, "child", 2.0, 4.0, 2),     # overlaps on another thread
        S(4, 1, "child", 9.0, 12.0, 2),    # clipped to the parent
        S(5, 2, "leaf", 1.5, 2.0, 1),
    ]
    got = spans.self_times(recorded)
    assert got["root"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert got["child"] == pytest.approx(1.5 + 2.0 + 3.0)
    assert got["leaf"] == pytest.approx(0.5)
