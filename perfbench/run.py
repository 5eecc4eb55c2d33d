"""Seeded benchmark of boxflow: set-up, time to a (1+eps) solve, quality.

Run from the repository root:

    python3 perfbench/run.py --workload mf-random --seed 1 --seconds 20 --trace 0

The workloads are listed in BENCHMARK.json and defined in workloads.py.
A run with ``--trace 0`` repeats the set-up at least three times and until
a second of set-up has been measured (set-up time is the median), then
makes whole passes over the workload's demands, at least one and more
while the next pass still fits in ``--seconds``, and prints the
end-to-end metrics.
A run with ``--trace 1`` makes one untraced and one traced pass (one
set-up and one demand pass each), checks that the two agree on every
deterministic counter, and prints the per-layer metrics and the tracing
overhead.  Every answer is checked outside the timed region.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Load is one process on one thread: the BLAS and OpenMP thread variables
are pinned to 1 before numpy is imported, and the process runs under an
address-space limit so a runaway allocation becomes a counted
MemoryError instead of taking the machine down.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ADDRESS_SPACE_LIMIT = 3 << 30  # bytes
SETUP_MIN_REPEATS = 3  # set-up is repeated at least this often
SETUP_MIN_SECONDS = 1.0  # and until this much set-up time is measured
SETUP_MAX_REPEATS = 50


class Ledger:
    """Attempted and failed operations; an op is one build or one solve."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # ops whose answer failed a check
        self.mismatches = []  # counters that did not repeat exactly

    def run(self, what, fn):
        """(result, seconds) of fn(), or (None, seconds) if it raised.  No retry."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # any error is a failed op; the run goes on
            seconds = time.perf_counter() - start
            self.failed += 1
            print(f"FAILED {what}:\n{traceback.format_exc()}", file=sys.stderr)
            return None, seconds
        return result, time.perf_counter() - start

    def check(self, what, fn):
        """fn() outside the timed region; a failed check fails the op checked."""
        from workloads import CheckFailed

        try:
            return fn()
        except CheckFailed as exc:
            self.wrong += 1
            self.failed += 1
            print(f"WRONG {what}: {exc}", file=sys.stderr)
        except Exception:  # the check itself broke: the op stays unverified
            self.failed += 1
            print(f"FAILED check of {what}:\n{traceback.format_exc()}", file=sys.stderr)
        return None

    def expect_equal(self, what, a, b):
        if a != b:
            self.mismatches.append(f"{what}: {a!r} != {b!r}")
            print(f"MISMATCH {what}: {a!r} != {b!r}", file=sys.stderr)

    @property
    def correct(self):
        return self.wrong == 0 and not self.mismatches


def limit_address_space():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_LIMIT)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    """Informational context printed with every result; not gated."""
    import numpy
    import scipy

    lines = {p.stem: sum(1 for _ in p.open(encoding="utf-8"))
             for p in sorted((SRC / "boxflow").glob("*.py"))}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "address_space_limit_bytes": ADDRESS_SPACE_LIMIT,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


# -- one pass over the demands ----------------------------------------------------


def solve_pass(wl, state, ledger):
    """Time every solve of one pass; returns (reports, seconds per solve)."""
    reports, seconds = [], []
    for i, fn in enumerate(wl.solves(state)):
        rep, dt = ledger.run(f"{wl.name} solve {i}", fn)
        reports.append(rep)
        if rep is not None:
            seconds.append(dt)
    return reports, seconds


def check_pass(wl, state, reports, ledger):
    """Oracle and reference checks of one pass; returns the quality records."""
    out = []
    for i, rep in enumerate(reports):
        if rep is not None:
            q = ledger.check(f"{wl.name} solve {i}", lambda i=i, rep=rep: wl.check_solve(state, i, rep))
            if q is not None:
                out.append(q)
    return out


def same_answers(wl, ledger, first, later, what):
    """A repeated solve of the same demand must give the same report bits."""
    for i, (a, b) in enumerate(zip(first, later)):
        if a is not None and b is not None:
            ledger.expect_equal(f"{wl.name} {what} solve {i}",
                                (a.primal_cost, a.dual_value, a.iterations_total, a.solve_calls),
                                (b.primal_cost, b.dual_value, b.iterations_total, b.solve_calls))


def failed_solves(wl, ledger, reason):
    """Without an approximator no solve can be attempted: each one fails."""
    n = wl.planned_solves()
    ledger.attempted += n
    ledger.failed += n
    print(f"FAILED {wl.name}: {n} solves not run ({reason})", file=sys.stderr)


def setup_once(wl, ledger, label, first=None):
    """One timed set-up, checked; first holds the first set-up's fingerprint."""
    from workloads import fingerprint, require

    state, seconds = ledger.run(f"{wl.name} set-up {label}", wl.setup)
    if state is None:
        return None, seconds

    def verify():
        wl.check_setup(state)
        if first is not None:
            fp = [fingerprint(a) for a in wl.approximators(state)]
            first.setdefault("fingerprint", fp)
            require(fp == first["fingerprint"], "set-up is not reproducible")
        return True

    if ledger.check(f"{wl.name} set-up {label}", verify) is None:
        return None, seconds
    return state, seconds


# -- the two kinds of run ------------------------------------------------------------


def measure(wl, seconds, ledger):
    """End-to-end metrics: repeated set-up, then whole passes."""
    start = time.perf_counter()
    setup_s, first, state = [], {}, None
    k = 0
    while k < SETUP_MIN_REPEATS or (sum(setup_s) < SETUP_MIN_SECONDS and k < SETUP_MAX_REPEATS):
        state = None  # drop the previous build before the next one
        state, dt = setup_once(wl, ledger, str(k), first)
        if state is not None:
            setup_s.append(dt)
        k += 1
    if state is None:
        failed_solves(wl, ledger, "set-up failed")
        return {"setup_s": statistics.median(setup_s) if setup_s else None,
                "peak_rss_mb": peak_rss_mb()}

    passes, solve_s = [], []
    while True:
        pass_start = time.perf_counter()
        reports, times = solve_pass(wl, state, ledger)
        passes.append(reports)
        solve_s.extend(times)
        if len(passes) == 1:
            # later passes repeat the same work; memory they keep (such as a
            # growing round trace) would tie the figure to machine speed
            rss = peak_rss_mb()
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break

    quality = check_pass(wl, state, passes[0], ledger)
    for p, later in enumerate(passes[1:], start=1):
        same_answers(wl, ledger, passes[0], later, f"pass {p}")
    return {
        "setup_s": statistics.median(setup_s) if setup_s else None,
        "solve_s": statistics.fmean(solve_s) if solve_s else None,
        "certified_ratio": max((q["certified_ratio"] for q in quality), default=None),
        "primal_opt_ratio": max((q["primal_opt_ratio"] for q in quality), default=None),
        "peak_rss_mb": rss,
        "passes": len(passes),
        "solves": len(solve_s),
        "setups": k,
    }


def report_counters(reports):
    live = [r for r in reports if r is not None]
    return {
        "iterations": sum(r.iterations_total for r in live),
        "boxsimplex_calls": sum(r.solve_calls for r in live),
        "repair_rounds": sum(r.repair_rounds for r in live),
    }


def traced_pair(wl, ledger):
    """One untraced and one traced set-up plus pass; per-layer metrics."""
    import tracing

    def one_pass(tracer=None):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.phase = "setup"
        state, _ = setup_once(wl, ledger, "traced" if tracer else "untraced")
        if state is None:
            failed_solves(wl, ledger, "set-up failed")
            return None
        net = wl.network(state)
        rounds0 = net.round_count if net is not None else 0  # after set-up checks
        if tracer is not None:
            tracer.phase = "solve"
        t1 = time.perf_counter()
        reports, _times = solve_pass(wl, state, ledger)
        solve_wall = time.perf_counter() - t1
        return {
            "state": state,
            "reports": reports,
            "wall": time.perf_counter() - t0,
            "solve_wall": solve_wall,
            "setup_rounds": state.get("setup_rounds", 0),
            "solve_rounds": net.round_count - rounds0 if net is not None else 0,
            "public": wl.public_counters(state),
            "counters": report_counters(reports),
        }

    plain = one_pass()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = one_pass(tracer)
    finally:
        tracer.restore()
    if plain is None or traced is None:
        return None

    check_pass(wl, plain["state"], plain["reports"], ledger)
    same_answers(wl, ledger, plain["reports"], traced["reports"], "traced")
    S, V = tracer.counts["setup"], tracer.counts["solve"]
    PS, PV = tracer.peaks["setup"], tracer.peaks["solve"]

    # counters that must repeat exactly between the untraced and traced pass
    for key, value in plain["public"].items():
        ledger.expect_equal(f"{key} untraced vs traced set-up", value, traced["public"][key])
        ledger.expect_equal(f"{key} public vs trace", value, S[key])
    ledger.expect_equal("iterations", plain["counters"]["iterations"], V["boxsimplex.iterations"])
    ledger.expect_equal("box-simplex calls", plain["counters"]["boxsimplex_calls"], V["boxsimplex_calls"])
    ledger.expect_equal("repair rounds", plain["counters"]["repair_rounds"], V["solvers.repair_rounds"])
    ledger.expect_equal("setup rounds", plain["setup_rounds"], traced["setup_rounds"])
    ledger.expect_equal("solve rounds", plain["solve_rounds"], traced["solve_rounds"])

    n_solves = max(1, len(traced["reports"]))
    iters = max(1.0, V["boxsimplex.iterations"])
    calibrations = max(1.0, S["approx_common.calibrate_calls"])
    products = max(1.0, V["products"])
    state = traced["state"]
    net = wl.network(state)
    max_words = max((r["max_words"] for r in net.trace), default=0) if net is not None else 0
    return {
        "covers.build_s": S["covers.build_s"],
        "covers.scales": S["covers.scales"],
        "covers.clusterings": S["covers.clusterings"],
        "covers.clusters": S["covers.clusters"],
        "ts_approx.build_R_s": S["ts_approx.build_R_s"],
        "ts_approx.R_rows": S["ts_approx.R_rows"],
        "ts_approx.R_nnz": S["ts_approx.R_nnz"],
        "ts_approx.R_max_col_nnz": PS["ts_approx.R_max_col_nnz"],
        "tree_approx.build_s": S["tree_approx.build_s"],
        "tree_approx.height": PS["tree_approx.height"],
        "tree_approx.R_nnz": S["tree_approx.R_nnz"],
        "approx_common.calibrate_s": S["approx_common.calibrate_s"],
        "approx_common.calibrate_scale": S["approx_common.calibrate_scale"] / calibrations,
        "approx_common.calibrate_rho": S["approx_common.calibrate_rho"] / calibrations,
        "oracle.calls": S["oracle_calls"],
        "oracle.s": S["oracle_s"],
        "sparsemat.game_operator_s": S["sparsemat.game_operator_s"],
        "sparsemat.M_nnz": sum(M.nnz for M in wl.game_operators(state)),
        "solvers.search_s": V["solvers.search_s"] / n_solves,
        "solvers.repair_s": V["solvers.repair_s"] / n_solves,
        "solvers.dual_s": V["solvers.dual_s"] / n_solves,
        "solvers.probes": V["solvers.probes"] / n_solves,
        "solvers.repair_rounds": V["solvers.repair_rounds"] / n_solves,
        "boxsimplex.calls": V["boxsimplex_calls"] / n_solves,
        "boxsimplex.iterations": V["boxsimplex.iterations"] / n_solves,
        "boxsimplex.budget_use": V["boxsimplex.iterations"] / max(1.0, V["boxsimplex.scheduled"]),
        "boxsimplex.us_per_iter": 1e6 * V["boxsimplex_s"] / iters,
        "boxsimplex.products_per_iter": V["products"] / iters,
        "boxsimplex.bytes_per_iter": V["product_bytes"] / iters,
        "boxsimplex.game_norm": PV["boxsimplex.game_norm"],
        "minoragg.setup_rounds": plain["setup_rounds"],
        "minoragg.rounds_per_product": V["product_rounds"] / products,
        "minoragg.ms_per_round": (1e3 * plain["solve_wall"] / plain["solve_rounds"]
                                  if plain["solve_rounds"] else 0.0),
        "minoragg.max_words": max_words,
        "trace.overhead_s": traced["wall"] - plain["wall"],
    }


# -- entry point ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "boxflow" / "__init__.py").is_file():
        print(f"perfbench: no boxflow package under {SRC}", file=sys.stderr)
        return 2
    limit_address_space()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    print(f"# env {json.dumps(environment(), sort_keys=True)}")
    if args.trace:
        values = traced_pair(wl, ledger) or {}
        wanted = spec["per_layer"]
    else:
        values = measure(wl, args.seconds, ledger)
        values["ok_ratio"] = (ledger.attempted - ledger.failed) / max(1, ledger.attempted)
        print(f"# {wl.name}: {values.pop('setups', 0)} set-ups, then {values.pop('solves', 0)} "
              f"solves in {values.pop('passes', 0)} pass(es)")
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": None if value is None else float(value), "unit": m["unit"]}
        print(f"{wl.name:14s} {m['name']:32s} {value!r:>24} {m['unit']}")
    failed_ratio = ledger.failed / max(1, ledger.attempted)
    print(f"{wl.name:14s} {'failed_ratio':32s} {failed_ratio!r:>24} "
          f"({ledger.failed} of {ledger.attempted} ops)")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
