import json

import numpy as np
import pytest

from boxflow.cli import main
from boxflow.graphs import load_graph
from boxflow.solvers import CentralizedCore, _GameFamily
from boxflow.tree_approx import build_mf_approximator
from boxflow.ts_approx import build_ts_approximator

EIGHT_CYCLE = "\n".join(f"{i} {(i + 1) % 8} 1" for i in range(8)) + "\n"
FIG1_D = "0 2\n1 -1\n3 1\n4 -1\n6 -1\n"
FIG2_D = "0 -2\n1 2\n3 1\n4 -1\n"


@pytest.fixture
def files(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text(EIGHT_CYCLE)
    d1 = tmp_path / "fig1.d"
    d1.write_text(FIG1_D)
    d2 = tmp_path / "fig2.d"
    d2.write_text(FIG2_D)
    return {"graph": str(graph), "fig1": str(d1), "fig2": str(d2), "dir": tmp_path}


def run_cli(args, report_path=None):
    argv = list(args)
    if report_path is not None:
        argv += ["--report", str(report_path)]
    rc = main(argv)
    report = None
    if report_path is not None and rc == 0:
        report = json.loads(open(report_path).read())
    return rc, report


def test_oracle_transshipment_exact(files, tmp_path):
    rc, rep = run_cli(
        ["oracle", "--graph", files["graph"], "--demand", files["fig1"], "--problem", "transshipment"],
        tmp_path / "r.json",
    )
    assert rc == 0
    assert rep["result"]["cost"] == 4
    assert rep["version"] == "boxflow-report-v1"


def test_oracle_congestion_exact(files, tmp_path):
    rc, rep = run_cli(
        ["oracle", "--graph", files["graph"], "--demand", files["fig2"], "--problem", "congestion"],
        tmp_path / "r.json",
    )
    assert rc == 0
    assert rep["result"]["cost"] == 1.5


def test_transshipment_solve_window(files, tmp_path):
    rc, rep = run_cli(
        ["transshipment", "--graph", files["graph"], "--demand", files["fig1"], "--eps", "0.1"],
        tmp_path / "r.json",
    )
    assert rc == 0
    res = rep["result"]
    assert 4.0 - 1e-9 <= res["primal_cost"] <= 4.4
    assert res["dual_value"] >= 3.6


def test_maxflow_solve_window(files, tmp_path):
    rc, rep = run_cli(
        ["maxflow", "--graph", files["graph"], "--demand", files["fig2"], "--eps", "0.1"],
        tmp_path / "r.json",
    )
    assert rc == 0
    res = rep["result"]
    assert 1.5 - 1e-9 <= res["primal_cost"] <= 1.65
    assert res["dual_value"] >= 1.35


def test_determinism_byte_identical(files, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["transshipment", "--graph", files["graph"], "--demand", files["fig1"],
            "--eps", "0.2", "--seed", "11"]
    assert run_cli(args, a)[0] == 0
    assert run_cli(args, b)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_mode_equivalence(files, tmp_path):
    a, b = tmp_path / "cen.json", tmp_path / "agg.json"
    base = ["maxflow", "--graph", files["graph"], "--demand", files["fig2"],
            "--eps", "0.3", "--seed", "3"]
    assert run_cli(base + ["--mode", "centralized"], a)[0] == 0
    assert run_cli(base + ["--mode", "minor-agg"], b)[0] == 0
    ra, rb = json.loads(a.read_text())["result"], json.loads(b.read_text())["result"]
    assert rb["rounds_total"] > 0
    for key in ("primal_cost", "dual_value", "dual_norm", "t_final", "t_dual"):
        assert abs(ra[key] - rb[key]) <= 1e-9 * max(1.0, abs(ra[key]))
    for key in ("primal_flow", "dual_potentials"):
        fa, fb = np.array(ra[key]), np.array(rb[key])
        assert np.abs(fa - fb).max() <= 1e-9
    # structurally identical search path apart from the round counters
    assert ra["solve_calls"] == rb["solve_calls"]
    assert len(ra["t_trace"]) == len(rb["t_trace"])
    for (t1, v1, y1), (t2, v2, y2) in zip(ra["t_trace"], rb["t_trace"]):
        assert t1 == t2 and y1 == y2 and abs(v1 - v2) <= 1e-9


def test_approx_quality(files, tmp_path):
    rc, rep = run_cli(
        ["approx-quality", "--graph", files["graph"], "--samples", "10"], tmp_path / "q.json"
    )
    assert rc == 0
    res = rep["result"]
    assert res["transshipment"]["sandwich_min"] >= 1.0 - 1e-9
    assert res["maxflow"]["sandwich_min"] >= 1.0 - 1e-9
    assert res["transshipment"]["sandwich_max"] <= 500.0
    assert res["maxflow"]["sandwich_max"] <= 500.0
    # each section reports the L its game runs with, a solve's game_norm
    g = load_graph(EIGHT_CYCLE)
    for problem, build in (("transshipment", build_ts_approximator), ("maxflow", build_mf_approximator)):
        approx = build(g, seed=0)
        L = _GameFamily(problem, g, approx, CentralizedCore(approx)).L
        assert res[problem]["operator_norm"] == L
    assert res["maxflow"]["operator_norm"] < approx.game_operator().one_to_one_norm()


def test_dist_demo(files, tmp_path):
    rc, rep = run_cli(["dist-demo", "--graph", files["graph"]], tmp_path / "d.json")
    assert rc == 0
    res = rep["result"]
    assert res["r_columns_max_abs_diff"] == 0.0
    assert all(v <= 1e-9 for v in res["product_max_rel_diff"].values())
    assert all(v <= res["round_budget_per_matvec"] for v in res["product_rounds"].values())


def test_validation_exit_codes(files, tmp_path):
    # unknown flag
    assert main(["transshipment", "--graph", files["graph"], "--nope"]) == 1
    # missing file
    assert main(["oracle", "--graph", "/nonexistent", "--demand", files["fig1"],
                 "--problem", "congestion"]) == 1
    # imbalanced demand
    bad = tmp_path / "bad.d"
    bad.write_text("0 1\n")
    assert main(["transshipment", "--graph", files["graph"], "--demand", str(bad)]) == 1
    # --tau belongs to the cover-based transshipment approximator only
    assert main(["maxflow", "--graph", files["graph"], "--demand", files["fig2"],
                 "--tau", "3"]) == 1
    # bad eps
    assert main(["transshipment", "--graph", files["graph"], "--demand", files["fig1"],
                 "--eps", "0.9"]) == 1
    # malformed graph
    badg = tmp_path / "bad.txt"
    badg.write_text("0 0 1\n")
    assert main(["oracle", "--graph", str(badg), "--demand", files["fig1"],
                 "--problem", "congestion"]) == 1
