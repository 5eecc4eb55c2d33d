"""Ground-truth solvers for desk-scale instances.

Each oracle is one exact algorithm, the same for integral and float input.
No build or solve calls opt_transshipment: it serves the CLI oracle and
approx-quality commands, the tests and the bench checks.

opt_transshipment: exact uncapacitated min-cost flow.  Balanced demand is
reduced to a transportation problem on the shortest-path metric (Dijkstra
from every supply node) and solved by successive shortest paths with
potentials; transported mass is routed back along the shortest-path trees
to produce an edge flow.  An augmentation never relaxes a node it has
settled: with reduced costs >= 0 that changes nothing, and under float
round-off it keeps every predecessor chain acyclic.  The duals come from
the transport: phi = -min_s (pot_s + dist(s, .)) over the supply
potentials is 1-Lipschitz, and the transport optimality conditions give
<d, phi> = cost, which is checked.  Integral input stays in int, so
answers like the golden 8-cycle cost come out exact.

opt_congestion: Dinkelbach's ratio iteration over cuts.  Routing d at
congestion t (edge capacities t/w) is a max-flow question; from t = 0,
each infeasible round's minimum cut S gives the lower bound
|d(S)|/cap(S) > t, and t moves to it, until a round routes d.  The ratio
is computed in Fraction and rounded once, so integral optima such as the
golden 1.5 come out exact.

Neither uses an LP solver: importing scipy.optimize alone adds about
17 MB of resident memory, and one HiGHS call on the 8-cycle takes
1.6-3.7 ms against 0.37 ms here.
"""

import heapq
from fractions import Fraction

import numpy as np

from boxflow.graphs import dijkstra, validate_demand


class OracleError(RuntimeError):
    pass


def _is_integral(arr):
    return all(float(v).is_integer() for v in arr)


def opt_transshipment(g, d):
    """Exact optimum of  min ||Wf||_1 : Bf = d.

    Returns (cost, flow, potentials): a feasible flow attaining the cost
    and optimal dual potentials with <d, phi> equal to the cost.
    """
    d = np.asarray(d, dtype=np.float64)
    validate_demand(d)
    integral = _is_integral(g.weight) and _is_integral(d)
    if integral:
        dd = [int(round(v)) for v in d]
    else:
        dd = [float(v) for v in d]
        total = sum(dd)
        if total != 0.0:
            # absorb float imbalance so transport masses match exactly
            k = int(np.argmax(np.abs(d)))
            dd[k] -= total

    supplies = [v for v in range(g.n) if dd[v] > 0]
    demands = [v for v in range(g.n) if dd[v] < 0]
    flow = np.zeros(g.m)
    if not supplies:
        return (0 if integral else 0.0), flow, np.zeros(g.n)

    sp = {s: dijkstra(g, s, as_int=integral) for s in supplies}
    # node-indexed lists: the transport looks distances up in its inner loop
    dist = {s: [sp[s][0][v] for v in range(g.n)] for s in supplies}
    mass_tol = 0 if integral else 1e-12 * float(np.abs(d).sum())

    plan, cost, pot_s = _solve_transport(
        supplies,
        demands,
        {s: dd[s] for s in supplies},
        {t: -dd[t] for t in demands},
        lambda s, t: dist[s][t],
        mass_tol,
    )

    for (s, t), q in plan.items():
        pred = sp[s][1]
        v = t
        while v != s:
            e, u = pred[v]
            if int(g.head[e]) == v:
                flow[e] += q
            else:
                flow[e] -= q
            v = u

    reach = np.array([[pot_s[s] + x for x in dist[s]] for s in supplies], dtype=np.float64)
    phi = -reach.min(axis=0)
    gap = abs(float(d @ phi) - float(cost))
    if gap > 1e-9 * float(np.abs(d) @ np.abs(phi)):
        raise OracleError(f"transport duals miss the cost by {gap:g}")
    return cost, flow, phi


def _solve_transport(supplies, demands, supply, deficit, dist_fn, mass_tol):
    """Successive shortest paths on the bipartite transport network.

    Node potentials keep reduced costs nonnegative, so each augmentation
    is a Dijkstra over supply and demand nodes plus residual arcs; it
    never relaxes a settled node.  At the end every arc satisfies
    pot_t[t] <= pot_s[s] + dist(s, t), tight where mass flows.  Returns
    ({(s, t): mass}, total_cost, pot_s).
    """
    remaining_s = dict(supply)
    remaining_t = dict(deficit)
    plan = {}
    pot_s = {s: 0 for s in supplies}
    pot_t = {t: min(dist_fn(s, t) for s in supplies) for t in demands}
    guard = 4 * (len(supplies) * len(demands) + len(supplies) + len(demands)) + 16

    while True:
        active = [s for s in supplies if remaining_s[s] > mass_tol]
        if not active:
            break
        guard -= 1
        if guard < 0:
            raise OracleError("transport augmentation did not terminate")

        dist = {}
        prev = {}
        heap = []
        for s in active:
            dist[("s", s)] = 0
            prev[("s", s)] = None
            heapq.heappush(heap, (0, 0, ("s", s)))
        done = set()
        order = 1

        def relax(key, nd, node):
            nonlocal order
            if key not in done and (key not in dist or nd < dist[key]):
                dist[key] = nd
                prev[key] = node
                heapq.heappush(heap, (nd, order, key))
                order += 1

        while heap:
            du, _, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            kind, v = node
            if kind == "s":
                for t in demands:
                    relax(("t", t), du + (dist_fn(v, t) + pot_s[v] - pot_t[t]), node)
            else:
                for s in supplies:
                    if plan.get((s, v), 0) > mass_tol:
                        relax(("s", s), du - (dist_fn(s, v) + pot_s[s] - pot_t[v]), node)

        targets = [t for t in demands if remaining_t[t] > mass_tol and ("t", t) in dist]
        if not targets:
            break
        t_best = min(targets, key=lambda t: (dist[("t", t)], t))

        path = []
        node = ("t", t_best)
        while prev[node] is not None:
            path.append((prev[node], node))
            node = prev[node]
        path.reverse()  # plan's key order sets the float summation order
        s_first = node[1]
        # arcs alternate supply -> demand (adds mass) and back (cancels it)
        amount = min([remaining_s[s_first], remaining_t[t_best]]
                     + [plan[(b[1], a[1])] for a, b in path if a[0] == "t"])
        for a, b in path:
            if a[0] == "s":
                plan[(a[1], b[1])] = plan.get((a[1], b[1]), 0) + amount
            else:
                plan[(b[1], a[1])] -= amount
        remaining_s[s_first] -= amount
        remaining_t[t_best] -= amount
        for (kind, v), dv in dist.items():
            (pot_s if kind == "s" else pot_t)[v] += dv

    cost = sum(dist_fn(s, t) * q for (s, t), q in plan.items() if q > 0)
    return {k: q for k, q in plan.items() if q > 0}, cost, pot_s


# -- minimum congestion ------------------------------------------------------


class _Dinic:
    """Max flow over a fixed arc list: arc 2k runs tails[k] -> heads[k]
    and arc 2k+1 runs back, so one network serves many capacity lists."""

    def __init__(self, n_nodes, tails, heads):
        self.n = n_nodes
        self.out = [[] for _ in range(n_nodes)]
        self.to = []
        for k, (u, v) in enumerate(zip(tails, heads)):
            self.out[u].append(2 * k)
            self.out[v].append(2 * k + 1)
            self.to += (v, u)

    def max_flow(self, cap, s, t):
        """Max flow s -> t under the per-arc capacity list cap, which is
        left holding the residual.  Returns (value, level); nodes with
        level >= 0 are the source side of a minimum cut."""
        out, to = self.out, self.to
        total = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for a in out[u]:
                    v = to[a]
                    if cap[a] > 0.0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return total, level
            # blocking flow without recursion: follow current arcs from s;
            # a dead end retreats one arc and skips it, a path reaching t
            # is augmented by its bottleneck and the walk restarts at s
            it = [0] * self.n
            path = []
            u = s
            while True:
                if u == t:
                    pushed = min(cap[a] for a in path)
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    path.clear()
                    u = s
                arcs, i, nxt = out[u], it[u], level[u] + 1
                while i < len(arcs) and not (cap[arcs[i]] > 0.0 and level[to[arcs[i]]] == nxt):
                    i += 1
                it[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif u == s:
                    break
                else:
                    u = to[path.pop() ^ 1]
                    it[u] += 1


def _cut_ratio(g, dd, side):
    """|d(S)| / cap(S) computed exactly, rounded once to float."""
    in_side = np.zeros(g.n, dtype=bool)
    in_side[side] = True
    crossing = np.flatnonzero(in_side[g.tail] != in_side[g.head])
    if len(crossing) == 0:
        return 0.0
    d_side = sum(Fraction(dd[v]) for v in side)
    weights, counts = np.unique(g.weight[crossing], return_counts=True)
    cap = sum(int(k) / Fraction(float(w)) for w, k in zip(weights, counts))
    return float(abs(d_side) / cap)


def opt_congestion(g, d):
    """Exact optimum of  min ||Wf||_inf : Bf = d.

    Returns (cost, flow).  Dinkelbach's ratio iteration (Management
    Science, 1967): start at t = 0; while d cannot be routed at congestion
    t, move t up to the ratio |d(S)|/cap(S) of the minimum cut S that
    blocks it.  Every such ratio
    is a lower bound on the optimum, and the first t that routes d is the
    optimum, so the cost is the float nearest to the largest cut ratio.
    The loop also stops, returning t, if the next ratio does not rise:
    then t blocks d only by round-off.
    """
    d = np.asarray(d, dtype=np.float64)
    validate_demand(d)
    if not np.any(d):
        return 0.0, np.zeros(g.m)
    dd = [float(v) for v in d]
    total = sum(v for v in dd if v > 0)
    slack = 1e-11 * max(total, 1.0)
    # graph arcs at capacity t/w both ways, then one arc per demand node:
    # from the super source n to a supply, from a deficit to the sink n+1
    n, m = g.n, g.m
    ends = [(n, v) if dd[v] > 0 else (v, n + 1) for v in range(n) if dd[v] != 0.0]
    tails, heads = zip(*ends)
    net = _Dinic(n + 2, g.tail.tolist() + list(tails), g.head.tolist() + list(heads))
    demand_cap = [c for v in range(n) if dd[v] != 0.0 for c in (abs(dd[v]), 0.0)]
    # The flow of one round stays feasible at the next, larger t: raising
    # t by dt adds dt/w to both arcs of an edge, which is exactly that
    # flow's residual at the new capacities, so each round only augments.
    cap = [0.0] * (2 * m) + demand_cap
    t = 0.0
    value = 0.0
    while True:
        pushed, level = net.max_flow(cap, n, n + 1)
        value += pushed
        caps = t / g.weight
        # forward use minus backward use, halved because unused capacity
        # shows up on both sides
        residual = np.array(cap[: 2 * m])
        flow = ((caps - residual[0::2]) - (caps - residual[1::2])) / 2.0
        if value >= total - slack and t > 0:
            return t, flow
        ratio = _cut_ratio(g, dd, [v for v in range(n) if level[v] >= 0])
        if ratio <= t:
            return t, flow
        cap[: 2 * m] = (residual + np.repeat((ratio - t) / g.weight, 2)).tolist()
        t = ratio
