"""End-to-end tests of the command-line interface."""

import json
import math
import threading

import numpy as np
import pytest

from chshcert import bounds, cli, core, oracle, simulate


def _run(args):
    return cli.main(args)


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestBoundsCommand:
    def test_ns_curve_endpoints(self, tmp_path):
        out = tmp_path / "ns.csv"
        assert _run([
            "bounds", "--curve", "ns", "--g", "1.0", "--steps", "5",
            "--out", str(out),
        ]) == 0
        header, rows = _read_csv(out)
        assert header == ["P", "value", "branch"]
        assert float(rows[0][1]) == pytest.approx(2.0, abs=1e-12)
        assert float(rows[-1][1]) == pytest.approx(4.0, abs=1e-12)

    def test_quantum_curve_branch_tags(self, tmp_path):
        out = tmp_path / "q.csv"
        assert _run([
            "bounds", "--curve", "quantum", "--steps", "26", "--out", str(out),
        ]) == 0
        _, rows = _read_csv(out)
        tags = {row[2] for row in rows}
        assert tags == {"quantum", "deterministic"}
        assert float(rows[0][1]) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_g_of_p_requires_s(self, tmp_path, capsys):
        assert _run(["bounds", "--curve", "g-of-p", "--steps", "3"]) == 1
        assert "requires --s" in capsys.readouterr().err

    def test_skip_invalid_rows(self, tmp_path):
        out = tmp_path / "g.csv"
        assert _run([
            "bounds", "--curve", "g-of-p", "--s", "3.5", "--p-max", "0.4",
            "--steps", "4", "--skip-invalid", "--out", str(out),
        ]) == 0
        _, rows = _read_csv(out)
        assert rows[-1][1] == "nan"
        assert rows[-1][2] == "domain-error"

    def test_domain_error_without_skip(self, capsys):
        assert _run([
            "bounds", "--curve", "g-of-p", "--s", "3.5", "--p-max", "0.4",
            "--steps", "4",
        ]) == 1


class TestModelCommand:
    def test_general_model_json(self, tmp_path):
        out = tmp_path / "model.json"
        assert _run([
            "model", "--kind", "general", "--g", "0.8", "--p", "0.3",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["components"]) == 4

    def test_high_p_requires_extra_args(self, capsys):
        assert _run(["model", "--kind", "high-p", "--g", "0.8", "--p", "0.4"]) == 1
        assert "--q" in capsys.readouterr().err

    def test_out_of_range_fails(self, capsys):
        assert _run(["model", "--kind", "general", "--g", "0.8", "--p", "0.5"]) == 1


class TestSimulateCommand:
    def test_pipeline(self, tmp_path):
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        assert _run([
            "model", "--kind", "general", "--g", "1.0", "--p", "0.25",
            "--out", str(model_path),
        ]) == 0
        assert _run([
            "simulate", "--model", str(model_path), "--trials", "50000",
            "--seed", "3", "--p-assumed", "0.25", "--mode", "ns",
            "--out", str(report_path),
        ]) == 0
        doc = json.loads(report_path.read_text())
        # S = 2 is the deterministic bound at P = 1/4, so whether a seed
        # certifies anything depends on which side of 2 its S_hat falls.
        counts = simulate.run_trials(
            core.model_from_json(model_path.read_text()), 50_000, seed=3
        )
        assert doc["S_hat"] == simulate.estimate_S(counts)[0]
        assert doc["certified_bits"] == simulate.certify(counts, 0.25, "ns")
        assert doc["certified_bits"] >= 0.0
        assert abs(doc["S_hat"] - 2.0) <= 5.0 * max(doc["S_stderr"], 1e-9)

    def test_violating_model_certifies_bits(self, tmp_path):
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        assert _run([
            "model", "--kind", "general", "--g", "0.8", "--p", "0.25",
            "--out", str(model_path),
        ]) == 0
        assert _run([
            "simulate", "--model", str(model_path), "--trials", "50000",
            "--seed", "3", "--p-assumed", "0.25", "--mode", "ns",
            "--out", str(report_path),
        ]) == 0
        doc = json.loads(report_path.read_text())
        assert abs(doc["S_hat"] - 2.8) <= 5.0 * doc["S_stderr"]
        assert doc["certified_bits"] > 0.0

    def test_missing_model_file(self, tmp_path, capsys):
        assert _run([
            "simulate", "--model", str(tmp_path / "nope.json"),
            "--trials", "10", "--seed", "0", "--p-assumed", "0.25",
        ]) == 1


class TestVerifyCommand:
    def test_lp_target(self, tmp_path):
        out = tmp_path / "verify.json"
        assert _run([
            "verify", "--target", "lp", "--p-steps", "4", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["soundness_violation"] is False
        assert doc["max_gap"] <= 1e-6
        assert len(doc["points"]) == 4

    def test_ns_target_small(self, tmp_path):
        out = tmp_path / "verify.json"
        assert _run([
            "verify", "--target", "ns", "--g-steps", "2", "--p-steps", "2",
            "--p-max", "0.3", "--restarts", "4", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["soundness_violation"] is False

    @pytest.mark.parametrize("target, name", [
        ("ns", "maximize_S_ns"), ("lp", "lp_deterministic_max_S"),
        ("fac", "maximize_S_fac"),
    ])
    def test_exact_target_below_the_bound_exits_3(self, tmp_path, monkeypatch,
                                                  target, name):
        monkeypatch.setattr(oracle, name, lambda *args, **kwargs: 0.0)
        out = tmp_path / "verify.json"
        assert _run([
            "verify", "--target", target, "--g-steps", "2", "--p-steps", "2",
            "--out", str(out),
        ]) == 3
        doc = json.loads(out.read_text())
        assert doc["soundness_violation"] is False
        assert doc["completeness_violation"] is True

    def test_points_run_in_grid_order_on_the_calling_thread(self, tmp_path,
                                                             monkeypatch):
        caller, threads_before = threading.get_ident(), threading.active_count()
        calls = []

        def stub(G, P, restarts, seed):
            calls.append((threading.get_ident(), threading.active_count(), G, P))
            return bounds.s_max_fac(G, P)[0]

        monkeypatch.setattr(oracle, "maximize_S_fac", stub)
        out = tmp_path / "fac.json"
        assert _run([
            "verify", "--target", "fac", "--g-steps", "2", "--p-steps", "3",
            "--out", str(out),
        ]) == 0
        grid = [(G, float(P)) for G in (0.5, 1.0)
                for P in np.linspace(0.25, 1.0 / 3.0, 3)]
        assert [call[2:] for call in calls] == grid
        assert {call[:2] for call in calls} == {(caller, threads_before)}
        doc = json.loads(out.read_text())
        assert [(pt["G"], pt["P"]) for pt in doc["points"]] == grid

    def test_same_seed_writes_identical_points(self, tmp_path):
        docs = []
        for extra in ([], ["--threads", "1"]):
            out = tmp_path / f"fac{len(docs)}.json"
            assert _run([
                "verify", "--target", "fac", "--g-steps", "2", "--p-steps", "1",
                "--p-min", "0.3", "--p-max", "0.3", "--restarts", "3",
                "--seed", "4", "--out", str(out), *extra,
            ]) == 0
            docs.append(json.loads(out.read_text()))
        assert docs[0]["points"] == docs[1]["points"]

    def test_more_than_one_thread_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["verify", "--target", "lp", "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_quantum_target_small(self, tmp_path):
        out = tmp_path / "verify.json"
        assert _run([
            "verify", "--target", "quantum", "--samples", "3", "--restarts", "4",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["soundness_violation"] is False
