"""Command-line interface.

Subcommands: transshipment, maxflow (approximate solvers, centralized or
simulated minor-aggregation mode), oracle (exact desk-scale answers),
approx-quality (calibration and sandwich measurements), and dist-demo
(distributed-vs-centralized equivalence and round counts).

Reports are JSON documents with a version field, deterministic byte for
byte given the same seed and flags: keys are sorted and no timestamps are
recorded.  Exit codes: 0 success, 1 validation error, 2 numeric failure.
"""

import argparse
import json
import sys

import numpy as np

from boxflow.covers import CoverError
from boxflow.graphs import (
    DemandBalanceError,
    GraphFormatError,
    load_graph,
    parse_demand,
    validate_demand,
)
from boxflow.rng import child_rng

REPORT_VERSION = "boxflow-report-v1"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser():
    parser = _Parser(prog="boxflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, demand=True, eps=True):
        p.add_argument("--graph", required=True, help="edge-list file: 'u v w' per line")
        if demand:
            p.add_argument("--demand", required=True, help="demand file: 'v value' per line")
        if eps:
            p.add_argument("--eps", type=float, default=0.1, help="accuracy target")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", default=None, help="write the JSON report here")

    def tau(p):
        # only the cover-based transshipment approximator has distance scales
        p.add_argument("--tau", type=int, default=None, help="distance-scale parameter")

    for name in ("transshipment", "maxflow"):
        p = sub.add_parser(name, help=f"approximate {name} solve")
        common(p)
        if name == "transshipment":
            tau(p)
        p.add_argument("--mode", choices=("centralized", "minor-agg"), default="centralized")
        p.add_argument("--calibrate", choices=("on", "off"), default="on")

    p = sub.add_parser("oracle", help="exact desk-scale optimum")
    common(p, eps=False)
    p.add_argument("--problem", choices=("transshipment", "congestion"), required=True)

    p = sub.add_parser("approx-quality", help="calibration and sandwich measurements")
    common(p, demand=False, eps=False)
    tau(p)
    p.add_argument("--calibrate", choices=("on", "off"), default="on")
    p.add_argument("--samples", type=int, default=50)

    p = sub.add_parser("dist-demo", help="minor-aggregation equivalence demo")
    common(p, demand=False, eps=False)
    tau(p)
    return parser


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _emit(report, path):
    doc = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


def _config_echo(args):
    skip = {"command", "report"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _solve_report_dict(rep):
    return {
        "problem": rep.problem,
        "eps": rep.eps,
        "n": rep.n,
        "m": rep.m,
        "primal_cost": rep.primal_cost,
        "primal_flow": [float(x) for x in rep.primal_flow],
        "feasibility_residual": rep.feasibility_residual,
        "dual_value": rep.dual_value,
        "dual_norm": rep.dual_norm,
        "dual_potentials": [float(x) for x in rep.dual_potentials],
        "certified_ratio": rep.certified_ratio if np.isfinite(rep.certified_ratio) else None,
        "t_final": rep.t_final,
        "t_dual": rep.t_dual,
        "t_trace": [[t, v, bool(y)] for (t, v, y) in rep.t_trace],
        "iterations_total": rep.iterations_total,
        "solve_calls": rep.solve_calls,
        "repair_rounds": rep.repair_rounds,
        "approx_scale": rep.approx_scale,
        "approx_rho": None if np.isnan(rep.approx_rho) else rep.approx_rho,
        "game_norm": rep.game_norm,
        "rounds_total": rep.rounds_total,
        "mode": rep.mode,
        "seed": rep.seed,
    }


def _cmd_solve(args):
    from boxflow.minoragg import MinorAggCore, MinorAggNetwork
    from boxflow.solvers import solve_maxflow, solve_transshipment
    from boxflow.tree_approx import build_mf_approximator
    from boxflow.ts_approx import build_ts_approximator

    g = load_graph(_read(args.graph))
    d = parse_demand(_read(args.demand), g.n)
    validate_demand(d)
    calibrate = args.calibrate == "on"
    if args.command == "transshipment":
        approx = build_ts_approximator(g, seed=args.seed, tau=args.tau, calibrate_scale=calibrate)
        solver = solve_transshipment
    else:
        approx = build_mf_approximator(g, seed=args.seed, calibrate_scale=calibrate)
        solver = solve_maxflow

    core = None
    if args.mode == "minor-agg":
        net = MinorAggNetwork(g)
        core = MinorAggCore(net, approx)
    return _solve_report_dict(solver(g, d, args.eps, approx=approx, seed=args.seed, core=core))


def _cmd_oracle(args):
    from boxflow.oracle import opt_congestion, opt_transshipment

    g = load_graph(_read(args.graph))
    d = parse_demand(_read(args.demand), g.n)
    if args.problem == "transshipment":
        cost, flow, phi = opt_transshipment(g, d)
        return {
            "problem": "transshipment",
            "cost": cost,
            "flow": [float(x) for x in flow],
            "potentials": [float(x) for x in phi],
        }
    cost, flow = opt_congestion(g, d)
    return {
        "problem": "congestion",
        "cost": cost,
        "flow": [float(x) for x in flow],
    }


def _random_balanced_demand(n, rng):
    d = rng.normal(size=n)
    return d - d.mean()


def _quality_section(g, approx, samples, seed, oracle_fn):
    rng = child_rng(seed, "quality", approx.norm_kind)
    lo, hi = float("inf"), 0.0
    used = 0
    for _ in range(samples):
        d = _random_balanced_demand(g.n, rng)
        opt = oracle_fn(g, d)
        if opt <= 0:
            continue
        ratio = approx.estimate(d) / opt
        lo, hi = min(lo, ratio), max(hi, ratio)
        used += 1
    M = approx.game_operator()
    out = {
        "norm": approx.norm_kind,
        "rows": approx.R.n_rows,
        "nnz": approx.R.nnz,
        "col_bound": approx.R.col_bound,
        "max_col_nnz": approx.R.max_col_nnz(),
        "scale": approx.scale,
        "calibration_rho": approx.calibration.rho if approx.calibration.enabled else None,
        # the L of this problem's game, as a solve reports in game_norm
        "operator_norm": M.inf_to_inf_norm() if approx.norm_kind == "linf" else M.one_to_one_norm(),
        "samples": used,
        "sandwich_min": None if used == 0 else lo,
        "sandwich_max": None if used == 0 else hi,
    }
    return out


def _cmd_quality(args):
    from boxflow.oracle import opt_congestion, opt_transshipment
    from boxflow.tree_approx import build_mf_approximator
    from boxflow.ts_approx import build_ts_approximator

    g = load_graph(_read(args.graph))
    calibrate = args.calibrate == "on"
    ts = build_ts_approximator(g, seed=args.seed, tau=args.tau, calibrate_scale=calibrate)
    mf = build_mf_approximator(g, seed=args.seed, calibrate_scale=calibrate)
    report = {
        "n": g.n,
        "m": g.m,
        "transshipment": _quality_section(
            g, ts, args.samples, args.seed, lambda g_, d: opt_transshipment(g_, d)[0]
        ),
        "maxflow": _quality_section(
            g, mf, args.samples, args.seed, lambda g_, d: opt_congestion(g_, d)[0]
        ),
        "ts_num_clusterings": [
            st.cover.num_clusterings for st in ts.structures.structures
        ],
        "tree_height": mf.tree.height,
    }
    return report


def _cmd_dist_demo(args):
    from boxflow.minoragg import MinorAggCore, MinorAggNetwork, dist_matvec
    from boxflow.solvers import CentralizedCore
    from boxflow.ts_approx import build_ts_approximator

    g = load_graph(_read(args.graph))
    approx = build_ts_approximator(g, seed=args.seed, tau=args.tau)
    net = MinorAggNetwork(g)
    core = MinorAggCore(net, approx)
    setup_rounds = net.round_count
    cen = CentralizedCore(approx)
    r_diff = float(
        np.abs(core.r_columns().to_dense() - approx.scaled_R().to_dense()).max(initial=0.0)
    )
    rng = child_rng(args.seed, "dist-demo")
    k = approx.R.n_rows
    diffs = {}
    rounds = {}
    pairs = [
        ("R", g.n, cen.mul_R),
        ("Rt", k, cen.mul_RT),
        ("A", g.m, cen.mul_M),
        ("At", k, cen.mul_MT),
        ("absA", g.m, cen.mul_absM),
        ("absAt", k, cen.mul_absMT),
    ]
    for which, size, ref in pairs:
        x = rng.normal(size=size)
        before = net.round_count
        got = dist_matvec(core, which, x)
        rounds[which] = net.round_count - before
        want = ref(x)
        scale = max(1.0, float(np.abs(want).max(initial=0.0)))
        diffs[which] = float(np.abs(got - want).max(initial=0.0) / scale)
    num_per_scale = [st.cover.num_clusterings for st in approx.structures.structures]
    return {
        "n": g.n,
        "m": g.m,
        "setup_rounds": setup_rounds,
        "r_columns_max_abs_diff": r_diff,
        "product_rounds": rounds,
        "product_max_rel_diff": diffs,
        "num_clusterings": num_per_scale,
        "round_budget_per_matvec": 4
        * len(num_per_scale)
        * max(num_per_scale)
        * max(num_per_scale),
        "word_budget": net.word_budget,
        "max_words_seen": max((t["max_words"] for t in net.trace), default=0),
    }


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command in ("transshipment", "maxflow"):
            result = _cmd_solve(args)
        elif args.command == "oracle":
            result = _cmd_oracle(args)
        elif args.command == "approx-quality":
            result = _cmd_quality(args)
        else:
            result = _cmd_dist_demo(args)
    except (UsageError, GraphFormatError, DemandBalanceError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, CoverError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    report = {
        "version": REPORT_VERSION,
        "command": args.command,
        "config": _config_echo(args),
        "result": result,
    }
    _emit(report, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
