"""Distance scales, sparse neighborhood covers, and per-scale potentials.

A cover for scale D holds a list of clusterings (partitions of V into
connected clusters of strong diameter at most D) such that every node has
some clustering containing its whole radius-D/tau ball inside one
cluster.  Clusterings are grown by shifted ball carving: centers are
visited in an exponentially-shifted random order and each carves a
Dijkstra ball of radius theta in [0.35 D, D/2) out of the residual graph,
which keeps clusters connected and certifies the diameter deterministically.
Clusterings are added until every ball is covered, giving up after twice
the configured count.

The covering test reads the potentials phi_j(v) = min(dist(V \\ C_j(v),
v), D): Ball(v, D/tau) lies inside C_j(v) exactly when no node outside
C_j(v) is within D/tau of v, that is when phi_j(v) > D/tau (the cap D
exceeds D/tau).  One csgraph Dijkstra from a virtual source computes phi
for every cluster of a clustering.

Scale 0 (D = 1) always uses singleton clusterings; weights are assumed
to be at least 1, which the approximator layer guarantees by rescaling.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from boxflow.rng import child_rng


TAU_MIN = 4


class CoverError(RuntimeError):
    """The retry budget was exhausted before the covering property held."""


def default_tau(n):
    """Default tau = max(TAU_MIN, ceil(log2 n)), in place of the published log^7 n."""
    return max(TAU_MIN, int(math.ceil(math.log2(max(n, 2)))))


def default_num_clusterings(n):
    return max(1, int(math.ceil(4 * math.log2(max(n, 2)))))


@dataclass
class DistanceScales:
    tau: int
    beta: int
    levels: list  # D_i for i in I_scale, contiguous from 0
    i_max: int


def build_scales(g, tau):
    """Scales D_i = beta^i with beta = 4 tau, up to n^2 * max weight.

    Scale 0 is always present, so the index set is contiguous from 0.
    beta = 4 tau is the smallest ratio at which R needs no containment
    test (boxflow.ts_approx), and the smaller beta, the smaller the game
    norm.  tau >= 4 keeps the covering radius D/tau clear of the smallest
    carving radius 0.35 D; at tau 3 some covers run out of clusterings.
    """
    if tau < TAU_MIN:
        raise ValueError(f"tau must be at least {TAU_MIN}, got {tau}")
    beta = 4 * tau
    limit = float(g.n) ** 2 * float(np.max(g.weight))
    levels = [1.0]
    nxt = float(beta)
    while nxt <= limit:
        levels.append(nxt)
        nxt *= beta
    return DistanceScales(tau=tau, beta=beta, levels=levels, i_max=len(levels) - 1)


@dataclass
class Clustering:
    ids: np.ndarray  # cluster id per node, dense 0..k-1
    members: list  # sorted node arrays per cluster id

    @property
    def n_clusters(self):
        return len(self.members)


@dataclass
class Cover:
    scale_index: int
    diameter: float
    radius: float  # covering radius D_i / tau
    clusterings: list = field(default_factory=list)
    phi: list = field(default_factory=list)  # per clustering: potentials, array (n,)
    covering_index: np.ndarray = None  # per node: first clustering covering its ball

    @property
    def num_clusterings(self):
        return len(self.clusterings)


def _make_clustering(ids_array):
    ids = np.asarray(ids_array, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    members = np.split(order, np.flatnonzero(np.diff(ids[order])) + 1)
    return Clustering(ids=ids, members=members)


def _singleton_clustering(n):
    return _make_clustering(np.arange(n))


def _carve_clustering(g, theta, order):
    """Partition V by residual Dijkstra balls of radius theta.

    Visiting centers in the given order, each unassigned center claims
    every unassigned node within distance theta of it in the residual
    graph.  Each cluster is a residual ball: connected, and its induced
    diameter is at most 2 theta.  In the residual CSR the arcs into
    claimed nodes weigh inf, so csgraph, which keeps exactly the nodes at
    distance <= theta, never enters a claimed node.
    """
    csr = g.csr()
    residual = csr.copy()
    ids = np.full(g.n, -1, dtype=np.int64)
    next_id = 0
    while order.size:
        ball = np.isfinite(csgraph.dijkstra(residual, indices=order[0], limit=theta))
        ids[ball] = next_id
        next_id += 1
        residual.data[ball[csr.indices]] = np.inf
        order = order[~ball[order]]
    return _make_clustering(ids)


def _clustering_potentials(g, ids, diameter):
    """phi(v) = min(dist_G(V \\ C(v), v), D) for every node of one clustering.

    A shortest path from V \\ C(v) to v enters C(v) once, over a cut edge,
    and stays inside it.  So one Dijkstra, over the intra-cluster edges
    plus a virtual source with an arc to each boundary node weighted by
    its lightest cut edge, gives phi for every cluster at once.  Paths
    are summed from the complement side, as a search from V \\ C(v)
    would.  An empty complement leaves phi at the cap D.
    """
    n = g.n
    csr = g.csr()
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    intra = ids[rows] == ids[csr.indices]
    entry = np.full(n, np.inf)
    np.minimum.at(entry, rows[~intra], csr.data[~intra])
    boundary = np.flatnonzero(np.isfinite(entry))
    counts = np.append(np.bincount(rows[intra], minlength=n), len(boundary))
    search = sp.csr_array(
        (
            np.concatenate([csr.data[intra], entry[boundary]]),
            np.concatenate([csr.indices[intra], boundary]),
            np.concatenate([[0], np.cumsum(counts)]),
        ),
        shape=(n + 1, n + 1),
    )
    dist = csgraph.dijkstra(search, directed=True, indices=n, limit=diameter)
    return np.minimum(dist[:n], diameter)


def build_cover(g, scale_index, diameter, tau, seed, num_clusterings=None):
    """Cover for one scale; see module docstring for the construction.

    Node v is covered by clustering j once phi_j(v) > D/tau: the ball
    Ball(v, D/tau) leaves C_j(v) exactly when some node outside C_j(v)
    lies within D/tau of v, that is when dist(V \\ C_j(v), v) <= D/tau,
    and phi_j(v) is that distance capped at D > D/tau.  The cover keeps
    every phi_j in cover.phi, the singleton scale's too.

    Raises CoverError if some ball is still uncovered after twice the
    target number of clusterings.
    """
    n = g.n
    num = num_clusterings if num_clusterings is not None else default_num_clusterings(n)
    radius = diameter / tau
    cover = Cover(scale_index=scale_index, diameter=diameter, radius=radius)
    covering_index = np.full(n, -1, dtype=np.int64)

    if diameter <= 1.0:
        # singleton scale; weights >= 1 make every covering ball trivial
        clustering = _singleton_clustering(n)
        cover.clusterings.append(clustering)
        cover.phi.append(_clustering_potentials(g, clustering.ids, diameter))
        covering_index[:] = 0
        cover.covering_index = covering_index
        return cover

    max_attempts = 2 * num
    attempt = 0
    while attempt < max_attempts:
        rng = child_rng(seed, "cover", scale_index, attempt)
        # exponential shifts order the centers; bigger shift carves first
        shifts = rng.exponential(size=n)
        order = np.argsort(-shifts, kind="stable")
        theta = (diameter / 2.0) * (0.7 + 0.3 * rng.random())
        clustering = _carve_clustering(g, theta, order)
        j = len(cover.clusterings)
        cover.clusterings.append(clustering)
        phi = _clustering_potentials(g, clustering.ids, diameter)
        cover.phi.append(phi)
        covering_index[(covering_index < 0) & (phi > radius)] = j
        attempt += 1
        if (covering_index >= 0).all():
            break

    if (covering_index < 0).any():
        missing = np.flatnonzero(covering_index < 0)
        raise CoverError(
            f"scale {scale_index} (D={diameter}): balls of {len(missing)} nodes "
            f"uncovered after {attempt} clusterings"
        )
    cover.covering_index = covering_index
    return cover


@dataclass
class DistanceStructure:
    """Cover plus potentials and derived p/w weights for one scale."""

    cover: Cover
    phi: list  # per clustering: array (n,) of potentials
    p: list = None  # per clustering: array (n,)
    w: np.ndarray = None  # array (n,)


@dataclass
class DistanceStructureSet:
    scales: DistanceScales
    structures: list  # DistanceStructure per scale index
    num_target: int

    @property
    def n_scales(self):
        return len(self.structures)


def compute_pw(structure, tau):
    """p_{i,j}(v) = max(0, phi_{i,j}(v)/D_i - 0.25/tau); w_i = sum_j p_{i,j}."""
    D = structure.cover.diameter
    shift = 0.25 / tau
    ps = [np.maximum(0.0, phi / D - shift) for phi in structure.phi]
    w = np.sum(ps, axis=0) if ps else np.zeros(0)
    structure.p = ps
    structure.w = w
    return ps, w


def build_distance_structures(g, tau=None, seed=0, num_clusterings=None):
    """Scales, covers, potentials, and p/w for every scale of g."""
    tau = tau if tau is not None else default_tau(g.n)
    scales = build_scales(g, tau)
    num = num_clusterings if num_clusterings is not None else default_num_clusterings(g.n)
    structures = []
    for i, D in enumerate(scales.levels):
        cover = build_cover(g, i, D, tau, seed, num_clusterings=num)
        structure = DistanceStructure(cover=cover, phi=cover.phi)
        compute_pw(structure, tau)
        structures.append(structure)
    return DistanceStructureSet(scales=scales, structures=structures, num_target=num)
