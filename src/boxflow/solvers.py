"""Max flow and transshipment via box-simplex games.

Both problems reduce to a family of games parameterized by a cost guess
t.  With M = (s R) B W^-1:

  max flow:       A^T = [M; -M]   b = [Rd; -Rd]/t   c = 0
  transshipment:  A   = [M, -M]   b = 0             c = -(Rd)/t

The stacked matrix A is never formed: the game family is itself the
operator, and each of its products is one product with M, M^T, |M| or
|M|^T by the core (the CSR arrays of M, or the minor-aggregation
simulator).  Its norm L = ||A||_{1->1} is the largest row l1 norm of M
for max flow and the largest column l1 norm of M for transshipment.

The certified game value at t measures the relative residual of the best
flow of cost at most t: zero when t is at least the optimum and at least
(OPT - t)/t below it.  A geometric grid over t is bisected for the
smallest t whose certified value is at most 2*eps_s; the deciding probe's
iterate also yields the primal flow, whose demand error is repaired by
coarse recursive solves plus an exact shortest-path-tree routing.  The
dual comes from the other end of the search's bracket: the iterate of
the highest NO probe, one grid step below the found threshold, turned
into potentials and normalized to unit dual norm.  By weak duality any
such potentials bound the optimum from below, whatever the probe's exit.

The accuracy policy is fixed, in fractions of the caller's eps: probes
run at eps_s = eps/PROBE_DIV, the t grid steps by 1 + eps/GRID_FACTOR,
and repair stops at eps*REPAIR_THETA times ||R d||, solving its
residuals at REPAIR_EPS.
"""

import math
from dataclasses import dataclass

import numpy as np

from boxflow.boxsimplex import BoxSimplexInstance, solve_decide
from boxflow.graphs import apply_B, apply_BT, dijkstra, validate_demand
from boxflow.tree_approx import build_mf_approximator
from boxflow.ts_approx import build_ts_approximator

PROBE_DIV = 6.0
GRID_FACTOR = 4.0
REPAIR_THETA = 0.125
REPAIR_EPS = 0.5
MAX_BRACKET_EXPANSIONS = 6
MAX_REPAIR_ROUNDS = 60


class FlowSolveError(RuntimeError):
    pass


@dataclass
class SolveReport:
    problem: str
    eps: float
    n: int
    m: int
    primal_flow: np.ndarray
    primal_cost: float
    feasibility_residual: float
    dual_potentials: np.ndarray
    dual_value: float
    dual_norm: float
    t_final: float
    t_dual: float
    t_trace: list
    iterations_total: int
    solve_calls: int
    repair_rounds: int
    approx_scale: float
    approx_rho: float
    game_norm: float
    rounds_total: int = 0
    mode: str = "centralized"
    seed: int = 0


class CentralizedCore:
    """Products with M and s*R on their CSR arrays."""

    mode = "centralized"

    def __init__(self, approx):
        self._M = approx.game_operator()
        self._R = approx.scaled_R()
        self.rounds = 0  # minor-aggregation cores count; centralized is free

    def mul_M(self, x):
        return self._M._mul(x)

    def mul_MT(self, y):
        return self._M._mul_T(y)

    def mul_absM(self, x):
        return self._M._abs_mul(x)

    def mul_absMT(self, y):
        return self._M._abs_mul_T(y)

    def mul_R(self, d):
        return self._R._mul(d)

    def mul_RT(self, y):
        return self._R._mul_T(y)


class _GameFamily:
    """The t-independent parts of one problem's game family.

    The family is also the game matrix A as an operator.  The simplex
    side is two copies of `half` coordinates, and each product is one
    core product: A = [M^T, -M^T] for max flow (half = rows of M) and
    A = [M, -M] for transshipment (half = columns of M).
    """

    def __init__(self, problem, g, approx, core):
        self.problem = problem
        self.g = g
        self.approx = approx
        self.core = core
        self.d = self.rd = None
        M = approx.game_operator()
        if problem == "maxflow":
            self.half = M.n_rows
            self.shape = (M.n_cols, 2 * M.n_rows)
            self._fwd, self._bwd = core.mul_MT, core.mul_M
            self._abs_fwd, self._abs_bwd = core.mul_absMT, core.mul_absM
            self.L = M.inf_to_inf_norm()
        else:
            self.half = M.n_cols
            self.shape = (M.n_rows, 2 * M.n_cols)
            self._fwd, self._bwd = core.mul_M, core.mul_MT
            self._abs_fwd, self._abs_bwd = core.mul_absM, core.mul_absMT
            self.L = M.one_to_one_norm()

    def matvec(self, y):
        return self._fwd(y[: self.half] - y[self.half :])

    def matvec_T(self, x):
        v = self._bwd(x)
        return np.concatenate([v, -v])

    def abs_matvec(self, y):
        return self._abs_fwd(y[: self.half] + y[self.half :])

    def abs_matvec_T(self, x):
        v = self._abs_bwd(x)
        return np.concatenate([v, v])

    def set_demand(self, d):
        self.d = np.asarray(d, dtype=np.float64)
        self.rd = self.core.mul_R(self.d)

    def estimate(self):
        return self.approx.vec_norm(self.rd)

    def instance_at(self, t):
        if self.problem == "maxflow":
            b = np.concatenate([self.rd, -self.rd]) / t
            c = np.zeros(self.g.m)
        else:
            b = np.zeros(2 * self.g.m)
            c = -self.rd / t
        return BoxSimplexInstance(self, b, c, L=self.L)

    def extract_primal(self, t, pt):
        w = self.g.weight
        if self.problem == "maxflow":
            return t * pt.x / w
        y1, y2 = pt.y[: self.half], pt.y[self.half :]
        return t * (y1 - y2) / w


@dataclass
class _Probe:
    t: float
    yes: bool
    value: float
    point: object


def _run_probe(family, t, eps_probe, threshold):
    inst = family.instance_at(t)
    eps_eff = min(eps_probe, inst.L / 2) if inst.L > 0 else eps_probe
    if family.problem == "maxflow":
        pt, up, lo = solve_decide(inst, eps_eff, upper_at_most=threshold, lower_above=threshold)
        value = up
    else:
        pt, up, lo = solve_decide(inst, eps_eff, upper_at_most=-threshold, lower_above=-threshold)
        value = -lo
    return _Probe(t=t, yes=value <= threshold, value=value, point=pt)


def _threshold_search(family, eps, trace, counters):
    """Smallest grid t whose certified game value is at most 2 eps_s: that
    YES probe, and the NO probe one grid step below it."""
    est = family.estimate()
    if est <= 0:
        raise FlowSolveError("approximator estimate of the demand is zero")
    rho = family.approx.calibration.rho
    if not (rho and math.isfinite(rho)):
        rho = max(4.0, family.L) * family.g.n
    eps_s = eps / PROBE_DIV
    threshold = 2.0 * eps_s
    step = 1.0 + eps / GRID_FACTOR
    t_lo = est / (2.0 * rho)
    t_hi = est * 1.05
    cache = {}

    def probe(k):
        if k not in cache:
            p = _run_probe(family, t_lo * step**k, eps_s, threshold)
            counters["iterations"] += p.point.iterations
            counters["solves"] += 1
            trace.append((p.t, p.value, bool(p.yes)))
            cache[k] = p
        return cache[k]

    K = max(1, math.ceil(math.log(t_hi / t_lo) / math.log(step)))
    for _ in range(MAX_BRACKET_EXPANSIONS):
        if probe(K).yes:
            break
        K = math.ceil(K * 1.5) + 4
    else:
        raise FlowSolveError("no threshold with small game value found; bracket exhausted")

    if probe(0).yes:
        # estimate was loose on the high side; walk the bracket down
        for _ in range(MAX_BRACKET_EXPANSIONS):
            shift = max(8, K // 2)
            t_lo /= step**shift
            shifted = {k + shift: p for k, p in cache.items()}
            cache.clear()
            cache.update(shifted)
            K += shift
            if not probe(0).yes:
                break
        else:
            raise FlowSolveError("every probe certifies a small game value; walk-down exhausted")
    hi_k = min(k for k, p in cache.items() if p.yes)
    lo_k = max(k for k, p in cache.items() if k < hi_k and not p.yes)
    while hi_k - lo_k > 1:
        mid = (hi_k + lo_k) // 2
        if probe(mid).yes:
            hi_k = mid
        else:
            lo_k = mid
    return cache[hi_k], cache[lo_k]


def _shortest_path_tree(g):
    """Shortest-path tree rooted at node 0, as the (node, parent edge,
    parent, edge points to node) steps of a leaves-first walk."""
    _dist, pred, order = dijkstra(g, 0)
    steps = []
    for u in reversed(order):
        if u == 0:
            continue
        e, par = pred[u]
        steps.append((u, e, par, int(g.tail[e]) == par and int(g.head[e]) == u))
    return steps


def _route_on_tree(g, tree, d):
    """Route d exactly on a tree from _shortest_path_tree."""
    flow = np.zeros(g.m)
    subtree = np.array(d, dtype=np.float64)
    for u, e, par, toward_u in tree:
        q = subtree[u]
        # the parent edge carries the whole subtree imbalance outward
        if toward_u:
            flow[e] -= q
        else:
            flow[e] += q
        subtree[par] += q
    return flow


def repair_flow(g, approx, d_resid, threshold, core=None, counters=None):
    """Flow f with B f = d_resid (exact tree routing at the end).

    Coarse recursive solves shrink the residual in approximator norm until
    both the stated threshold and the measured cost of tree-routing the
    remainder are small, then the remainder is routed on a shortest-path
    tree.
    """
    counters = counters if counters is not None else {"iterations": 0, "solves": 0}
    d_r = np.asarray(d_resid, dtype=np.float64).copy()
    total = np.zeros(g.m)
    if not np.any(d_r):
        return total, 0
    core = core or CentralizedCore(approx)
    family = _GameFamily("maxflow" if approx.norm_kind == "linf" else "transshipment", g, approx, core)
    spt = _shortest_path_tree(g)  # independent of the residual
    rounds = 0
    eps_rep = REPAIR_EPS
    prev = math.inf
    while rounds < MAX_REPAIR_ROUNDS:
        est = approx.vec_norm(core.mul_R(d_r))
        tree_cost = _cost(g, _route_on_tree(g, spt, d_r), approx.norm_kind)
        if (est <= threshold and tree_cost <= threshold) or est == 0.0:
            break
        family.set_demand(d_r)
        probe, _no = _threshold_search(family, eps_rep, trace=[], counters=counters)
        f_k = family.extract_primal(probe.t, probe.point)
        total += f_k
        d_r = d_r - apply_B(g, f_k)
        rounds += 1
        if est >= prev * 0.95:
            eps_rep = max(eps_rep / 2.0, 1e-3)
        prev = est
    total += _route_on_tree(g, spt, d_r)
    return total, rounds


def _cost(g, flow, norm_kind):
    scaled = np.abs(flow) * g.weight
    if norm_kind == "linf":
        return float(scaled.max(initial=0.0))
    return float(scaled.sum())


def _extract_dual(family, probe):
    """Potentials of unit dual norm from a probe's iterate, signed so that
    d . phi >= 0; returns (phi, d . phi, dual norm of phi)."""
    g = family.g
    if family.problem == "maxflow":
        y1, y2 = probe.point.y[: family.half], probe.point.y[family.half :]
        phi = -family.core.mul_RT(y1 - y2)
        size = np.sum  # the l1 norm is dual to congestion's l-inf
    else:
        phi = probe.t * family.core.mul_RT(probe.point.x)
        size = np.max  # the l-inf norm is dual to transshipment's l1
    stretch = np.abs(apply_BT(g, phi)) / g.weight
    norm = float(size(stretch))
    if norm <= 0:
        raise FlowSolveError("degenerate dual: potentials are constant")
    phi = phi / norm
    value = float(family.d @ phi)
    if value < 0:
        phi, value = -phi, -value
    return phi, value, float(size(stretch / norm))


def _solve_flow(problem, g, d, eps, approx, seed, core):
    d = np.asarray(d, dtype=np.float64)
    validate_demand(d)
    if not (0 < eps < 0.5):
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")
    norm_kind = "linf" if problem == "maxflow" else "l1"

    core = core or CentralizedCore(approx)
    common = dict(problem=problem, eps=eps, n=g.n, m=g.m, seed=seed, approx_scale=approx.scale,
                  mode=core.mode)
    if not np.any(d):
        return SolveReport(
            primal_flow=np.zeros(g.m),
            primal_cost=0.0,
            feasibility_residual=0.0,
            dual_potentials=np.zeros(g.n),
            dual_value=0.0,
            dual_norm=0.0,
            t_final=0.0,
            t_dual=0.0,
            t_trace=[],
            iterations_total=0,
            solve_calls=0,
            repair_rounds=0,
            approx_rho=float("nan"),
            game_norm=0.0,
            **common,
        )

    family = _GameFamily(problem, g, approx, core)
    family.set_demand(d)
    trace = []
    counters = {"iterations": 0, "solves": 0}

    found, below = _threshold_search(family, eps, trace, counters)
    t_final = found.t
    f_raw = family.extract_primal(t_final, found.point)

    d_resid = d - apply_B(g, f_raw)
    threshold = eps * REPAIR_THETA * family.estimate()
    f_rep, repair_rounds = repair_flow(g, approx, d_resid, threshold, core=core, counters=counters)
    flow = f_raw + f_rep
    resid = float(np.abs(apply_B(g, flow) - d).sum()) / max(float(np.abs(d).sum()), 1e-300)

    phi, dual_value, dual_norm = _extract_dual(family, below)

    return SolveReport(
        primal_flow=flow,
        primal_cost=_cost(g, flow, norm_kind),
        feasibility_residual=resid,
        dual_potentials=phi,
        dual_value=dual_value,
        dual_norm=dual_norm,
        t_final=t_final,
        t_dual=below.t,
        t_trace=trace,
        iterations_total=counters["iterations"],
        solve_calls=counters["solves"],
        repair_rounds=repair_rounds,
        approx_rho=approx.calibration.rho,
        game_norm=family.L,
        rounds_total=core.rounds,
        **common,
    )


def build_instance(problem, g, approx, d, t):
    """Box-simplex instance of the "maxflow" or "transshipment" game at
    cost guess t."""
    if problem not in ("maxflow", "transshipment"):
        raise ValueError(f"unknown problem {problem!r}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    family = _GameFamily(problem, g, approx, CentralizedCore(approx))
    family.set_demand(np.asarray(d, dtype=np.float64))
    return family.instance_at(t)


def solve_maxflow(g, d, eps, approx=None, seed=0, core=None):
    """(1+eps)-approximate min-congestion routing of d, primal and dual."""
    if approx is None:
        approx = build_mf_approximator(g, seed=seed)
    return _solve_flow("maxflow", g, d, eps, approx, seed, core)


def solve_transshipment(g, d, eps, approx=None, seed=0, core=None):
    """(1+eps)-approximate transshipment of d, primal and dual."""
    if approx is None:
        approx = build_ts_approximator(g, seed=seed)
    return _solve_flow("transshipment", g, d, eps, approx, seed, core)
