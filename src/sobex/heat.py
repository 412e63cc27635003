"""Discrete Neumann heat engine: spectra, kernels and bound diagnostics.

The module discretizes bounded domains (an interval, or a disk-like
domain on a model surface) into symmetric positive semidefinite
Neumann stiffness operators with diagonal mass, computes eigenpairs
and the heat kernel

    h_t(x, y) = sum_k exp(-lambda_k t) phi_k(x) phi_k(y),

summed over a factored spectrum (:class:`Spectrum`: radial vectors
times angular cos/sin vectors), and measures the quantities appearing
in the localized heat-kernel theory: the diagonal product
``h_t(x,x) Vol(B(x, sqrt(t)))``, volume doubling constants, localized
Gagliardo-Nirenberg constants, weighted semigroup operator norms with
their Dunford-Pettis identities, integral curvature means, the Kato
quantity, the first nonzero eigenvalue scaling and the inverse-time
gradient (Li-Yau style) envelope for positive solutions.

Balls are ambient metric balls intersected with the domain: the ball
``B(x, r)`` holds the nodes ``y`` with ``d(x, y) < r`` in the closed-form
(or graph) distance, and its volume sums their node weights.  Every
diagnostic takes its balls from :meth:`DiscreteDomain.ball_sums`.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
# scipy.linalg loads here, not inside the first eigensolve
import scipy.linalg.lapack
import scipy.sparse as sp

from .errors import AssemblyError, ParameterError
from .fermi import DomainSpec
from .quadrature import _reference_rule
from .surfaces import (
    constant_curvature_distance,
    polar_to_cartesian,
    row_blocks,
    squared_distances,
)

__all__ = [
    "DiscreteDomain",
    "NeumannSystem",
    "assemble",
    "heat_kernel",
    "ricci_negative_part",
    "diagonal_bound_check",
    "doubling_constant",
    "doubling_comparability",
    "gn_check",
    "vev_norm",
    "vev_finiteness_sweep",
    "integral_ricci",
    "kato_quantity",
    "eigenvalue_diagnostic",
    "li_yau_check",
    "fit_inverse_time_envelope",
]

_TWO_PI = 2.0 * math.pi
_LOG_TRUNC = -math.log(1e-12)  # spectral truncation threshold
_MODE_CAP = 2000
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep
_BALL_BLOCK = 8  # distance rows held at once by DiscreteDomain.ball_sums
# sampled centres of the two doubling checks and of integral_ricci
_DOUBLING_SAMPLES, _COMPARABILITY_SAMPLES, _RICCI_SAMPLES = 64, 48, 64
_GN_RANDOM_FIELDS, _GN_SEED = 12, 7  # gn_check's smoothed random fields and their seed
_VEV_TIMES = 10  # times per condition in vev_finiteness_sweep


def _check_times(t):
    """Raise :class:`ParameterError` unless ``t`` holds a time and every time
    in it is positive and finite (nan is neither)."""
    t = np.asarray(t, dtype=float)
    if t.size == 0:
        raise ParameterError("time grid is empty")
    if not np.all((0.0 < t) & (t < math.inf)):
        raise ParameterError("time must be positive and finite")


def _outside_stacklevel():
    """``warnings.warn`` stack level, for its caller, of the first frame outside sobex."""
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level


# ---------------------------------------------------------------------------
# discrete domains
# ---------------------------------------------------------------------------


class DiscreteDomain:
    """Nodes, quadrature masses and metric data of a discretized domain.

    Use the constructors :meth:`interval` and :meth:`disk_like`.  Node
    weights are exact integrals of the area element over a cell
    tiling, so they sum to the domain volume to machine precision.

    The builders state each grid's structure once: ``factors``, the
    :class:`TensorFactors` of a separable grid (``None`` on blobs), and
    on disk-like grids ``n_r`` rings of ``n_theta`` nodes, with each
    node's ``ring`` (the boundary ring is ``n_r``, the blob's pole 0).
    Pole disks also keep ``dr``, ``dtheta`` and the warp ``f_cent`` at
    their ring centres.  Every disk is a ``"pole_disk"`` grid about its own
    centre: flat distances are Cartesian, so a flat disk off the pole runs
    as the pole disk of its radius."""

    kind = spec = mesh_width = factors = _cart = None  # spec: DomainSpec if disk-like
    nodes = weights = None  # nodes (N,) on the interval, (N, 2) chart coords else
    n = None                # homogeneous dimension for doubling exponents
    n_r = n_theta = ring = dr = dtheta = f_cent = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def interval(cls, L, N):
        if not 0.0 < L < math.inf:
            raise AssemblyError("interval length L must be positive and finite")
        if N < 16:
            raise AssemblyError("need at least 16 cells on the interval")
        dom = cls()
        dom.kind = "interval"
        h = float(L) / int(N)
        dom.nodes = (np.arange(N) + 0.5) * h
        dom.weights = np.full(N, h)
        dom.n = 1
        dom.mesh_width = h
        dom._L = float(L)
        # a zero or subnormal h has conductance inf; assemble rejects zero weights
        with np.errstate(divide="ignore", over="ignore"):
            dom.factors = TensorFactors(1.0 / dom.weights[1:], np.zeros(N), dom.weights, 1)
        return dom

    @classmethod
    def disk_like(cls, spec: DomainSpec, n_r, n_theta):
        if n_r < 16 or n_theta < 16:
            raise AssemblyError("need at least 16 cells per axis")
        dom = cls()
        dom.spec = spec
        dom.n = 2
        dom.n_r, dom.n_theta = int(n_r), int(n_theta)
        dom.kind = "blob" if spec.kind == "blob" else "pole_disk"
        build = dom._build_blob if dom.kind == "blob" else dom._build_pole_disk
        build(spec, dom.n_r, dom.n_theta)
        return dom

    def refine(self):
        """The same domain at doubled resolution (for stability studies)."""
        if self.kind == "interval":
            return DiscreteDomain.interval(self._L, 2 * self.size)
        return DiscreteDomain.disk_like(self.spec, 2 * self.n_r, 2 * self.n_theta)

    # -- grid builders ---------------------------------------------------------

    def _build_pole_disk(self, spec, n_r, n_t):
        surf = spec.surface
        a = float(spec.boundary.radius)
        self.dr = dr = a / n_r
        self.dtheta = dt = _TWO_PI / n_t
        r_edges = np.arange(n_r + 1) * dr
        r_cent = (np.arange(n_r) + 0.5) * dr
        theta = (np.arange(n_t) + 0.5) * dt

        cell_r = _warp_integral(surf, r_edges)          # per radial cell
        R, T = np.meshgrid(r_cent, theta, indexing="ij")
        self.nodes = np.stack([R.ravel(), T.ravel()], axis=-1)
        self.weights = np.repeat(cell_r * dt, n_t)
        self.ring = np.repeat(np.arange(1, n_r + 1), n_t)
        self.f_cent = f_cent = np.asarray(surf.warp(r_cent), dtype=float)
        self.mesh_width = max(dr, float(np.max(f_cent)) * dt)
        f_edge = np.asarray(surf.warp(r_edges[1:-1]), dtype=float)
        # two-point flux conductances; a grid of zero width divides 0 by 0
        # here, and assemble rejects its zero weights
        with np.errstate(divide="ignore", invalid="ignore"):
            self.factors = TensorFactors(f_edge * dt / dr, dr / (f_cent * dt),
                                         self.weights[::n_t], n_t)

    def _build_blob(self, spec, n_r, n_t):
        prof = spec.boundary
        dxi = 1.0 / n_r
        dt = _TWO_PI / n_t
        theta = np.arange(n_t) * dt
        rho = prof.rho(theta)
        xi = (np.arange(n_r) + 1) * dxi                 # rings 1..n_r, ring n_r on the boundary
        # vertices: pole + rings
        ring_pts = (xi[:, None, None] * rho[None, :, None]) \
            * np.stack([np.cos(theta), np.sin(theta)], axis=-1)[None, :, :]
        cart = np.vstack([np.zeros((1, 2)), ring_pts.reshape(-1, 2)])
        self._cart = cart
        r = np.linalg.norm(cart, axis=-1)
        th = np.mod(np.arctan2(cart[:, 1], cart[:, 0]), _TWO_PI)
        self.nodes = np.stack([r, th], axis=-1)
        self.ring = np.concatenate([[0], np.repeat(np.arange(1, n_r + 1), n_t)])

        # exact dual-cell masses in (xi, theta): the cells tile the blob
        theta_edges = (np.arange(n_t + 1) - 0.5) * dt
        gx, gw = _reference_rule(16)
        mid = 0.5 * (theta_edges[:-1] + theta_edges[1:])
        half = 0.5 * dt
        rho_sq_cell = half * np.sum(gw * prof.rho(mid[:, None] + half * gx) ** 2, axis=1)
        xi_lo = np.maximum(xi - 0.5 * dxi, 0.0)
        xi_hi = np.minimum(xi + 0.5 * dxi, 1.0)
        ring_frac = 0.5 * (xi_hi**2 - xi_lo**2)         # (n_r,)
        w = np.empty(cart.shape[0])
        w[0] = 0.5 * (0.5 * dxi) ** 2 * np.sum(rho_sq_cell)
        w[1:] = (ring_frac[:, None] * rho_sq_cell[None, :]).ravel()
        self.weights = w
        self.mesh_width = max(float(np.max(rho)) * dxi, float(np.max(rho)) * dt)
        self._triangles = tris = self._triangulate(n_r, n_t)
        p0, p1, p2 = cart[tris[:, 0]], cart[tris[:, 1]], cart[tris[:, 2]]
        e0, e1, e2 = p2 - p1, p0 - p2, p1 - p0
        # the edge opposite each vertex and twice each triangle's signed area
        self._edges = (e0, e1, e2, e2[:, 0] * (-e1[:, 1]) - e2[:, 1] * (-e1[:, 0]))

    @staticmethod
    def _triangulate(n_r, n_t):
        """The pole fan, then per pair of neighbouring rings both halves of
        its quads, each block in angle order: the order the cotangent sums
        and :meth:`_blob_gradient` add up in."""
        start = 1 + np.arange(n_r)[:, None] * n_t         # ring i + 1 starts here
        here, ahead = start + np.arange(n_t), start + (np.arange(n_t) + 1) % n_t
        fan = np.stack([np.zeros(n_t, dtype=int), here[0], ahead[0]], axis=-1)
        quads = np.stack([np.stack([here[:-1], here[1:], ahead[1:]], axis=-1),
                          np.stack([here[:-1], ahead[1:], ahead[:-1]], axis=-1)], axis=1)
        return np.vstack([fan, quads.reshape(-1, 3)])

    # -- sizes and metric ------------------------------------------------------

    @property
    def size(self):
        return self.weights.shape[0]

    @property
    def volume(self):
        return float(np.sum(self.weights))

    def diameter(self):
        return self._L if self.kind == "interval" else self.spec.diameter()

    def cartesian(self):
        if self._cart is None:
            self._cart = polar_to_cartesian(self.nodes)
        return self._cart

    def distance_rows(self, idx):
        """Distances from the nodes ``idx`` to all nodes, shape (len(idx), N)."""
        idx = np.atleast_1d(np.asarray(idx, dtype=int))
        if self.kind == "interval":
            return np.abs(self.nodes[idx][:, None] - self.nodes[None, :])
        surf = self.spec.surface
        if surf.flat:
            c = self.cartesian()
            out = np.empty((idx.size, self.size))
            for rows in row_blocks(idx.size):
                np.sqrt(squared_distances(c[idx[rows]], c), out=out[rows])
            return out
        if surf.kind == "constant":
            return constant_curvature_distance(
                surf.kappa, self.nodes[idx][:, None, :], self.nodes[None, :, :]
            )
        from scipy.sparse.csgraph import dijkstra

        # the graph is stored symmetric, so no undirected copy is needed
        return dijkstra(self._graph, directed=True, indices=idx)

    def ball_sums(self, idx, radii, values=None):
        """Sums of ``values`` (default: the node weights) over the balls
        ``d(x, y) < r`` for ``x`` in ``idx`` and ``r`` in ``radii``, shape
        ``(len(idx), len(radii))``.  Each distance row bins its nodes once
        against the sorted radii (bin ``b``: ``r_(b-1) <= d < r_b``); the
        cumulative bin sums then give every radius.

        On a pole disk the grid, the node weights and the distance are
        invariant under rotation by ``dtheta``.  So when ``values`` are
        constant on every ring, as the weights are, a ball sum depends on
        the ring alone: the first node of ``idx`` on each ring gives its
        row of sums to every node of ``idx`` on that ring."""
        idx = np.atleast_1d(np.asarray(idx, dtype=int))
        radii = np.asarray(radii, dtype=float)
        values = self.weights if values is None else np.asarray(values, dtype=float)
        rows, back = idx, slice(None)
        if self.kind == "pole_disk":
            by_ring = values.reshape(self.n_r, self.n_theta)
            if np.all(by_ring == by_ring[:, :1]):
                _, first, back = np.unique(self.ring[idx], return_index=True,
                                           return_inverse=True)
                rows = idx[first]
        order = np.argsort(radii)
        sorted_radii = radii[order]
        out = np.empty((rows.shape[0], radii.shape[0]))
        for start in range(0, rows.shape[0], _BALL_BLOCK):
            for k, row in enumerate(self.distance_rows(rows[start:start + _BALL_BLOCK])):
                bins = np.searchsorted(sorted_radii, row, side="right")
                out[start + k, order] = np.cumsum(
                    np.bincount(bins, weights=values, minlength=radii.shape[0] + 1))[:-1]
        return out[back]

    @cached_property
    def _graph(self):
        """The warped pole disk's grid as a graph (CSR) for Dijkstra distances.

        Edges join angular neighbours (length ``f(r_i) dtheta``), radial
        neighbours (``dr``) and diagonal neighbours (``hypot(dr, f(r_i + dr/2)
        dtheta)``; ``r_i + dr/2`` is not bitwise a cell edge radius).  For
        ``f(r) = r`` every edge is at least its chord, so graph distances
        never undershoot the plane's.  They overshoot by a fixed fraction
        that refining the mesh does not shrink: eight edge directions per
        node, whose angles are set by the cell aspect ``f dtheta / dr``
        (near 0 at the pole, about 6 at the rim of a disk with
        ``n_r = n_theta``), not by the mesh width.  On the plane written as
        a warp, over pairs more than 0.2 apart in the unit disk, the largest
        ratio to the Euclidean distance is 1.25 at ``n_r = n_theta = 32``
        and 1.26 at 128.  The grid is invariant under rotations by
        ``dtheta``, so a node's row of distances is the row of its ring's
        first node rotated: :meth:`ball_sums` computes one row per ring on
        that ground, and ``test_warped_rows_rotate_with_their_source`` in
        ``tests/test_distance.py`` checks it bit for bit.
        """
        n_t, dr, dt = self.n_theta, self.dr, self.dtheta
        r = self.nodes[::n_t, 0]
        f_mid = np.asarray(self.spec.surface.warp(r[:-1] + 0.5 * dr), dtype=float)
        node = np.arange(self.size).reshape(self.n_r, n_t)
        inner, outer = node[:-1], node[1:]
        diag = np.repeat(np.hypot(dr, f_mid * dt), n_t)
        edges = [  # (from, to, length): angular, radial and both diagonals
            (node, np.roll(node, -1, axis=1), np.repeat(self.f_cent * dt, n_t)),
            (inner, outer, np.full(inner.size, dr)),
            (inner, np.roll(outer, -1, axis=1), diag),
            (inner, np.roll(outer, 1, axis=1), diag),
        ]
        rows, cols, lens = (np.concatenate([np.ravel(e[k]) for e in edges])
                            for k in range(3))
        g = sp.coo_matrix((lens, (rows, cols)), shape=(node.size, node.size))
        return (g + g.T).tocsr()

    def sample_indices(self, count):
        """A deterministic spread of node indices (for sup-type sweeps)."""
        N = self.size
        if count >= N:
            return np.arange(N)
        return np.unique(np.linspace(0, N - 1, count).astype(int))

    def interior_mask(self):
        """Nodes at least two mesh widths away from the boundary."""
        if self.kind == "interval":
            x = self.nodes
            pad = 2.0 * self.mesh_width
            return (x > pad) & (x < self._L - pad)
        return self.ring <= self.n_r - 2

    def node_gradient(self, values):
        """Orthonormal-frame gradient components at the nodes, shape (N, dim)."""
        v = np.asarray(values, dtype=float)
        if self.kind == "interval":
            h = self.mesh_width
            out = np.gradient(v, h)
            return out[:, None]
        if self.kind == "pole_disk":
            V = v.reshape(self.n_r, self.n_theta)
            d_r = np.gradient(V, self.dr, axis=0)
            d_t = (np.roll(V, -1, axis=1) - np.roll(V, 1, axis=1)) / (2.0 * self.dtheta)
            d_t = d_t / self.f_cent[:, None]
            return np.stack([d_r.ravel(), d_t.ravel()], axis=-1)
        return self._blob_gradient(v)

    def _blob_gradient(self, v):
        tris = self._triangles
        e0, e1, e2, area2 = self._edges
        # P1 gradient: sum_i v_i * rot(e_i) / (2 A)
        rot = lambda e: np.stack([-e[:, 1], e[:, 0]], axis=-1)
        g = (
            v[tris[:, 0], None] * rot(e0)
            + v[tris[:, 1], None] * rot(e1)
            + v[tris[:, 2], None] * rot(e2)
        ) / area2[:, None]
        acc = np.zeros((self.size, 2))
        wacc = np.zeros(self.size)
        a = 0.5 * np.abs(area2)
        for k in range(3):
            np.add.at(acc, tris[:, k], g * a[:, None])
            np.add.at(wacc, tris[:, k], a)
        return acc / wacc[:, None]


def _warp_integral(surface, r_edges):
    """Exact per-cell integrals of the warp factor (cell masses / dtheta)."""
    if surface.kind == "constant":
        # int_0^r sn = (1 - cn(r)) / kappa = 2 sn(r/2)^2, which unlike the
        # first form does not cancel catastrophically as kappa -> 0
        anti = 2.0 * np.asarray(surface.warp(0.5 * r_edges), dtype=float) ** 2
        return np.diff(anti)
    gx, gw = _reference_rule(8)
    lo, hi = r_edges[:-1], r_edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    vals = np.asarray(surface.warp(mid + half * gx[None, :]), dtype=float)
    return (half[:, 0]) * (vals @ gw)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def assemble(domain: DiscreteDomain) -> "NeumannSystem":
    """Symmetric PSD Neumann stiffness with diagonal mass for a domain.

    The natural (no-flux) boundary treatment makes constants exact null
    vectors: ``stiffness @ 1 == 0``.  Separable grids (the interval and
    disks, each about its centre) carry their two-point flux conductances on the
    orthogonal grid as ``domain.factors``; flat Fourier blobs use
    cotangent edge weights on the triangulated grid (both are the same
    graph-Laplacian construction with metric-aware edge conductances).
    """
    if np.any(domain.weights <= 0.0) or not np.all(np.isfinite(domain.weights)):
        raise AssemblyError("degenerate node weights")
    A = _cotangent_stiffness(domain) if domain.factors is None else domain.factors.stiffness()
    return NeumannSystem(A, domain.weights, domain.factors)


def _cotangent_stiffness(domain):
    """A blob's stiffness from cotangent edge weights, assembled per triangle."""
    tris = domain._triangles
    e0, e1, e2, area2 = domain._edges
    a4 = 2.0 * area2
    w01 = -np.sum(e0 * e1, axis=-1) / a4   # cot at vertex 2 -> edge (0,1)
    w12 = -np.sum(e1 * e2, axis=-1) / a4   # cot at vertex 0 -> edge (1,2)
    w20 = -np.sum(e2 * e0, axis=-1) / a4   # cot at vertex 1 -> edge (2,0)
    rows = np.concatenate([tris[:, 0], tris[:, 1], tris[:, 2]])
    cols = np.concatenate([tris[:, 1], tris[:, 2], tris[:, 0]])
    vals = np.concatenate([w01, w12, w20])
    return _edge_laplacian(rows, cols, vals, domain.size)


def _edge_laplacian(rows, cols, cond, N):
    off = sp.coo_matrix((cond, (rows, cols)), shape=(N, N))
    off = off + off.T
    deg = np.asarray(off.sum(axis=1)).ravel()
    return (sp.diags(deg) - off).tocsr()


@dataclass(frozen=True, eq=False)
class TensorFactors:
    """Ring-structured Neumann operator with its separable spectrum.

    The stiffness is ``T_r (x) I + diag(a) (x) L_circ`` and the mass
    ``diag(m) (x) I``: ``b`` holds the ``n_r - 1`` conductances between
    neighbouring rings (the path Laplacian ``T_r``), ``a`` the ``n_r``
    conductances between angular neighbours on each ring, ``m`` the
    ``n_r`` ring masses, and ``L_circ`` is the Laplacian of the
    ``n_theta``-cycle.  Node ``(i, j)`` (ring ``i``, angle ``j``) has index
    ``i * n_theta + j``; the interval is the case ``n_theta = 1``.

    ``L_circ`` has eigenvalues ``mu_k = 2 - 2 cos(2 pi k / n_theta)`` on
    the real cos/sin modes ``e``, so every eigenvector is ``D y (x) e``
    with ``D = diag(m)^(-1/2)`` and ``y`` an eigenvector of the
    symmetric tridiagonal radial problem ``D (T_r + mu_k diag(a)) D``.
    """

    b: np.ndarray
    a: np.ndarray
    m: np.ndarray
    n_theta: int

    def stiffness(self):
        """The assembled sparse stiffness (CSR)."""
        n_r, n_t = self.m.shape[0], self.n_theta
        node = np.arange(n_r * n_t).reshape(n_r, n_t)
        rows, cols, cond = [node[:-1]], [node[1:]], [np.repeat(self.b, n_t)]
        if n_t > 1:
            rows.append(node)
            cols.append(np.roll(node, -1, axis=1))
            cond.append(np.repeat(self.a, n_t))
        return _edge_laplacian(np.concatenate([r.ravel() for r in rows]),
                               np.concatenate([c.ravel() for c in cols]),
                               np.concatenate(cond), n_r * n_t)

    @cached_property
    def _radial(self):
        """Diagonals of the radial problems for ``k = 0 .. n_theta // 2``."""
        n_t = self.n_theta
        mu = 4.0 * np.sin(math.pi * np.arange(n_t // 2 + 1) / n_t) ** 2
        deg = np.zeros_like(self.m)
        deg[:-1] += self.b
        deg[1:] += self.b
        diag = (deg + mu[:, None] * self.a) / self.m
        off = -self.b / np.sqrt(self.m[:-1] * self.m[1:])
        return diag, off

    @cached_property
    def _modes(self):
        """All eigenvalues, ascending, as ``(lam, wave, basis, j)``.

        ``wave[b]`` is the wavenumber of angular basis function ``b``
        (cos before sin); mode ``p`` is radial eigenvector ``j[p]`` of
        problem ``wave[basis[p]]`` times basis function ``basis[p]``.  The
        stable sort keeps the listing order among equal eigenvalues, so
        the cos/sin pairs come out in a fixed order.
        """
        from scipy.linalg import eigh_tridiagonal

        diag, off = self._radial
        lam_k = eigh_tridiagonal(diag, np.broadcast_to(off, (diag.shape[0], off.shape[0])),
                                 eigvals_only=True, lapack_driver="stemr")
        n_t = self.n_theta
        wave = np.array([k for k in range(n_t // 2 + 1)
                         for _ in range(2 if 0 < 2 * k < n_t else 1)])
        lam = lam_k[wave].ravel()
        order = np.argsort(lam, kind="stable")
        basis, j = np.divmod(order, self.m.shape[0])
        return lam[order], wave, basis, j

    def _angular(self, wave):
        """Real orthonormal cos/sin eigenvectors of ``L_circ``, one column per mode."""
        n_t = self.n_theta
        sine = np.concatenate([[False], wave[1:] == wave[:-1]])
        paired = (wave > 0) & (2 * wave < n_t)
        angle = (_TWO_PI / n_t) * (np.outer(np.arange(n_t), wave) % n_t)
        return np.where(sine, np.sin(angle), np.cos(angle)) \
            * np.where(paired, math.sqrt(2.0 / n_t), math.sqrt(1.0 / n_t))

    def spectrum(self, keep):
        """The ``keep`` lowest mass-orthonormal eigenpairs as a :class:`Spectrum`.

        Wavenumber ``k`` gets one radial block ``D Y``, with ``Y`` the
        radial eigenvectors ``0 .. j_max`` of its problem that the
        ``keep`` modes use; its cos and sin modes share the block.
        """
        from scipy.linalg import eigh_tridiagonal

        lam, wave, basis, j = self._modes
        basis, j = basis[:keep], j[:keep]
        diag, off = self._radial
        scale = 1.0 / np.sqrt(self.m)
        blocks, offset, width = [], np.zeros(wave.max() + 1, dtype=int), 0
        for k in np.unique(wave[basis]):
            _, Y = eigh_tridiagonal(diag[k], off, select="i",
                                    select_range=(0, int(j[wave[basis] == k].max())),
                                    lapack_driver="stemr")
            blocks.append(scale[:, None] * Y)
            offset[k], width = width, width + Y.shape[1]
        return Spectrum(lam[:keep], basis, offset[wave[basis]] + j, np.hstack(blocks),
                        self._angular(wave))


def _lapack_check(name, info):
    """A failed LAPACK call raises, as ``scipy.linalg.eigh`` does."""
    if info != 0:
        raise np.linalg.LinAlgError(f"dense eigensolve failed: LAPACK {name} info {info}")


@dataclass(frozen=True, eq=False)
class _Reflectors:
    """The orthogonal change of basis ``D Q`` of a dense solve.

    ``D = diag(scale)`` with ``scale = m^(-1/2)``, and ``Q`` is the factor
    of LAPACK's lower tridiagonal reduction ``Q^T (D A D) Q = T``.  ``Q``
    is ``diag(1, Q')``, where ``Q'`` is the product of the ``N - 1``
    Householder reflectors held in QR form by ``v`` and ``tau``, so the
    eigenvectors of the system are ``D Q z`` for the eigenvectors ``z``
    of ``T``.  Column 0 of ``z`` is the constant mode, and every
    back-transform pins it to ``constant = 1/sqrt(V)``, bit for bit.
    """

    v: np.ndarray
    tau: np.ndarray
    scale: np.ndarray
    constant: float

    def reflect(self, c, trans):
        """Overwrite ``c`` (C-ordered, ``N x k``) with ``Q c`` (``trans="N"``)
        or ``Q^T c`` (``"T"``), and return it.

        The rows ``c[1:]`` transposed are a Fortran-ordered ``k x (N-1)``
        block, which ``dormqr`` reflects in place from the right:
        ``(Q' c)^T = c^T Q'^T``.
        """
        from scipy.linalg.lapack import dormqr

        tail = c[1:].T
        if tail.size == 0:  # an empty node set: dormqr rejects a block with no rows
            return c
        right = "T" if trans == "N" else "N"
        _, work, info = dormqr("R", right, self.v, self.tau, tail, -1, overwrite_c=1)
        _lapack_check("dormqr", info)
        out, _, info = dormqr("R", right, self.v, self.tau, tail, int(work[0]), overwrite_c=1)
        _lapack_check("dormqr", info)
        c[1:] = out.T  # a copy onto itself when dormqr worked in place
        return c

    def rows(self, nodes, z):
        """The rows ``nodes`` of ``D Q z``: ``d[u] (Q^T E_u)^T z`` for the unit
        columns ``E_u`` of the nodes."""
        unit = np.zeros((self.scale.shape[0], nodes.shape[0]))
        unit[nodes, np.arange(nodes.shape[0])] = 1.0
        out = (self.scale[nodes, None] * self.reflect(unit, "T").T) @ z
        out[:, 0] = self.constant
        return out

    def apply(self, z):
        """``D Q z`` on all nodes, in a new array."""
        out = self.reflect(np.array(z, order="C"), "N")
        out *= self.scale[:, None]
        out[:, 0] = self.constant
        return out


@dataclass(frozen=True, eq=False)
class Spectrum:
    """The lowest mass-orthonormal eigenpairs of a Neumann system, in factored form.

    Node ``i * n_theta + a`` has radial index ``i`` and angular index
    ``a``.  Mode ``p`` has eigenvalue ``lam[p]`` (ascending) and
    eigenvector ``R[:, column[p]] (x) angular[:, basis[p]]``, with the
    radial factor ``R``.  The modes of one angular basis function occupy
    adjacent radial columns in ascending order, so those among the first
    ``m`` modes are a run of columns.  A separable spectrum keeps one
    radial block per wavenumber, shared by its cos and sin; a dense or
    sparse one is the case ``n_theta = 1`` with ``angular = [[1.0]]``.
    ``R`` is ``radial``, except on a dense spectrum, which keeps ``R`` as
    ``D Q Z``: ``radial`` holds the eigenvectors ``Z`` of the tridiagonal
    reduction and ``reflectors`` the change of basis ``D Q``
    (:class:`_Reflectors`).  There :meth:`values` back-transforms the rows
    of a node set for every kept column and keeps those of the last set
    read, keyed by the set's value; the set of all nodes,
    :meth:`coefficients` and :meth:`synthesize` form ``D Q Z`` on all
    nodes once, and every read after that gathers from it.  Signs are as
    the solver left them: every kernel sum is blind to them.
    """

    lam: np.ndarray
    basis: np.ndarray
    column: np.ndarray
    radial: np.ndarray
    angular: np.ndarray
    reflectors: _Reflectors | None = None

    @classmethod
    def unfactored(cls, lam, phi, reflectors=None):
        """The spectrum of a non-separable solve: eigenvectors ``phi``, or
        ``reflectors`` applied to ``phi``."""
        return cls(lam, np.zeros(lam.shape[0], dtype=int), np.arange(lam.shape[0]), phi,
                   np.ones((1, 1)), reflectors)

    @cached_property
    def _factor(self):
        """The radial factor ``R`` on all nodes."""
        return self.radial if self.reflectors is None else self.reflectors.apply(self.radial)

    def _rows(self, nodes):
        """Rows of ``R`` at ``nodes`` (sorted, distinct), kept for the last node
        set read: ``_last_rows`` is ``(node bytes, rows)``."""
        key = nodes.tobytes()
        last = vars(self).get("_last_rows")
        if last is None or last[0] != key:
            last = vars(self)["_last_rows"] = (key, self.reflectors.rows(nodes, self.radial))
        return last[1]

    def _groups(self, m):
        """``(b, radial columns, modes)`` of each angular basis function ``b``
        among the first ``m`` modes, the modes in ascending order."""
        basis = self.basis[:m]
        modes = np.argsort(basis, kind="stable")
        counts = np.bincount(basis, minlength=self.angular.shape[1])
        start = 0
        for b in np.flatnonzero(counts):
            n = int(counts[b])
            first = int(self.column[modes[start]])
            yield b, slice(first, first + n), modes[start:start + n]
            start += n

    def values(self, nodes, m):
        """The first ``m`` eigenvectors at ``nodes``, shape ``nodes.shape + (m,)``."""
        nodes = np.asarray(nodes, dtype=int)
        # a dense spectrum back-transforms per node set until D Q Z is formed
        if self.reflectors is not None and "_factor" not in self.__dict__:
            sets, inverse = np.unique(nodes.ravel(), return_inverse=True)
            if sets.shape[0] < self.radial.shape[0]:
                return self._rows(sets)[:, :m][inverse.reshape(nodes.shape)]
        ring, angle = np.divmod(nodes, self.angular.shape[0])
        # numpy gathers with one index array at a time twice as fast as with a
        # broadcast pair; the radial gather takes the smaller copy first
        cols, factor = self.column[:m], self._factor
        if ring.size * factor.shape[1] <= factor.shape[0] * m:
            radial = factor[ring][..., cols]
        else:
            radial = factor[:, cols][ring]
        return np.multiply(radial, self.angular[angle][..., self.basis[:m]], out=radial)

    def coefficients(self, values, m):
        """``c_p = sum_x phi_p(x) values(x)`` for the first ``m`` modes."""
        factor = self._factor
        projected = values.reshape(factor.shape[0], -1) @ self.angular
        out = np.empty(m)
        for b, cols, modes in self._groups(m):
            out[modes] = factor[:, cols].T @ projected[:, b]
        return out

    def synthesize(self, coeff):
        """``sum_p coeff[p] phi_p`` on all nodes, over the first ``len(coeff)`` modes."""
        factor = self._factor
        radial = np.zeros((factor.shape[0], self.angular.shape[1]))
        for b, cols, modes in self._groups(coeff.shape[0]):
            radial[:, b] = factor[:, cols] @ coeff[modes]
        return (radial @ self.angular.T).ravel()


# ---------------------------------------------------------------------------
# the spectral system
# ---------------------------------------------------------------------------


class NeumannSystem:
    """Stiffness + diagonal mass with cached eigenpairs and kernel tools.

    Eigenpairs are mass-orthonormal; the first eigenvalue is zero with
    the constant eigenvector.  ``solver`` names the eigensolver that
    runs: ``"separable"`` when ``factors`` (a :class:`TensorFactors`, as
    the grids of intervals and disks carry) describe
    the operator, so a Fourier transform in the angle leaves tridiagonal
    radial problems; otherwise ``"dense"`` up to ``DENSE_LIMIT`` unknowns
    and ``"sparse"`` (shift-invert Lanczos) beyond.  The dense solver is
    LAPACK's tridiagonal reduction and divide and conquer on the
    tridiagonal; it keeps the Householder reflectors and the tridiagonal
    eigenvectors rather than back-transforming every eigenvector.
    ``spectrum`` holds the eigenpairs solved so far as a
    :class:`Spectrum`.  Every kernel value reads :meth:`Spectrum.values`
    at the nodes it needs, so a dense system back-transforms only the
    rows of those nodes; the all-node projections of :meth:`semigroup`
    contract the factors, so a separable system never forms its
    ``N x m`` eigenvector matrix for them, and
    :meth:`eigenpairs` builds only the columns it returns.  ``mode_cap``
    is 2000 up to ``DENSE_LIMIT`` unknowns and 384 beyond.
    ``modes_used`` is the largest :meth:`modes_for` result so far and
    ``truncation`` the largest truncation level it warned about (0.0
    if no sum was truncated).
    """

    DENSE_LIMIT = 4800

    def __init__(self, stiffness, mass, factors=None):
        self.stiffness = stiffness.tocsr()
        self.mass = np.asarray(mass, dtype=float)
        self.factors = factors
        self.spectrum = None
        if factors is not None:
            self.solver = "separable"
        else:
            self.solver = "dense" if self.size <= self.DENSE_LIMIT else "sparse"
        # above DENSE_LIMIT every solver keeps a few hundred modes, because
        # shift-invert Lanczos is impractical beyond that (and gives at most
        # N - 2); the separable solver keeps them as radial blocks
        dense_sized = self.size <= self.DENSE_LIMIT
        self.mode_cap = _MODE_CAP if dense_sized else 384
        self._max_modes = self.size if dense_sized else self.size - 2
        self.modes_used = 0
        self.truncation = 0.0

    @property
    def size(self):
        return self.mass.shape[0]

    @property
    def volume(self):
        return float(np.sum(self.mass))

    @property
    def _lam(self):
        """Eigenvalues of the current spectrum; a new array on each solve."""
        return None if self.spectrum is None else self.spectrum.lam

    def energy(self, f):
        """Dirichlet energy ``f^T A f`` (the squared half-Laplacian norm)."""
        f = np.asarray(f, dtype=float)
        # clamp roundoff-negative values for near-constant inputs
        return max(0.0, float(f @ (self.stiffness @ f)))

    # -- eigensolves -----------------------------------------------------------

    def eigenpairs(self, count, vectors=True):
        """First ``count`` mass-orthonormal eigenpairs (ascending).

        Each returned eigenvector has its largest-magnitude entry
        positive.  With ``vectors=False`` only the eigenvalues are
        returned (``phi`` is ``None``) and no eigenvector is formed.
        """
        count = int(min(count, self._max_modes))
        if self._lam is None or self._lam.shape[0] < count:
            dense_sized = self.size <= self.DENSE_LIMIT
            keep = max(count, min(self.size, _MODE_CAP)) if dense_sized else count
            self.spectrum = self._solve(keep)
        lam = self._lam[:count]
        if not vectors:
            return lam, None
        phi = self.spectrum.values(np.arange(self.size), count)
        # canonical sign: the largest-magnitude entry of each mode is positive
        peak = np.argmax(np.abs(phi), axis=0)
        phi *= np.where(phi[peak, np.arange(count)] < 0.0, -1.0, 1.0)
        return lam, phi

    def _solve(self, keep):
        """The ``keep`` lowest eigenpairs from this system's solver, with an
        exact constant mode."""
        if self.solver == "separable":
            spectrum = self.factors.spectrum(keep)
        elif self.solver == "dense":
            spectrum = self._dense_spectrum(keep)
        else:
            from scipy.sparse.linalg import eigsh

            d = 1.0 / np.sqrt(self.mass)
            B = self.stiffness.multiply(d[:, None]).multiply(d[None, :]).tocsc()
            # deterministic start vector: ARPACK would otherwise randomize
            v0 = np.cos(np.arange(self.size, dtype=float))
            lam, Y = eigsh(B, k=keep, sigma=-1e-8, which="LM", v0=v0)
            order = np.argsort(lam)
            spectrum = Spectrum.unfactored(lam[order], d[:, None] * Y[:, order])
        # A 1 = 0, but a solver's lam_0 carries roundoff (2.3e-12 from the dense
        # solve on a 24 x 48 blob) that exp(-lam_0 t) keeps at large t.  Pin
        # lam_0 = 0 and phi_0 = 1/sqrt(V).  Mode 0 heads the radial columns of
        # its constant angular function, which start at column 0; the others
        # lose their mass-weighted mean, which makes them mass-orthogonal to
        # phi_0.  Radial columns of node values carry the constant 1 and the
        # ring masses as weights; a dense spectrum's columns are coordinates of
        # D^-1 phi in the orthonormal basis Q, where the constant is Q^T sqrt(m).
        if spectrum.reflectors is None:
            one, weight = np.ones(1), self.mass[::spectrum.angular.shape[0]]
            volume = float(np.sum(weight))
        else:
            one = weight = spectrum.reflectors.reflect(np.sqrt(self.mass)[:, None], "T")[:, 0]
            volume = self.volume
        group = spectrum.radial[:, :np.count_nonzero(spectrum.basis == spectrum.basis[0])]
        group -= np.outer(one, (weight @ group) / volume)
        group[:, 0] = one / math.sqrt(volume)
        return replace(spectrum, lam=np.concatenate([[0.0], spectrum.lam[1:]]))

    def _dense_spectrum(self, keep):
        """The ``keep`` lowest eigenpairs of ``B = D A D`` (``D = m^(-1/2)``),
        factored as ``D Q Z``.

        LAPACK reduces ``B`` to a tridiagonal ``T = Q^T B Q`` (``dsytrd``) and
        solves ``T`` by divide and conquer (``dstevd``, whose ``dstedc`` is
        the solver ``eigh(driver="evd")`` runs), but leaves out the
        back-transform ``Q Z`` of all ``N`` eigenvectors: the spectrum applies
        ``Q`` only to the rows a sum reads.
        """
        from scipy.linalg.lapack import dstevd, dsytrd, dsytrd_lwork

        d = 1.0 / np.sqrt(self.mass)
        S = self.stiffness.multiply(d[:, None]).multiply(d[None, :])
        B = (0.5 * (S + S.T)).toarray()
        # B is exactly symmetric, so B.T is B in Fortran order: LAPACK reduces it in place
        lwork, info = dsytrd_lwork(self.size, lower=1)
        _lapack_check("dsytrd", info)
        B, diag, off, tau, info = dsytrd(B.T, lower=1, lwork=int(lwork), overwrite_a=1)
        _lapack_check("dsytrd", info)
        # reflector k of Q' is column k below the diagonal, as dormqr reads it
        v = np.asfortranarray(B[1:, :-1])
        del B
        lam, Z, info = dstevd(diag, off, compute_v=1)
        _lapack_check("dstevd", info)
        return Spectrum.unfactored(lam[:keep], Z[:, :keep],
                                   _Reflectors(v, tau, d, 1.0 / math.sqrt(self.volume)))

    def modes_for(self, t_min):
        """Mode count for relative spectral truncation below 1e-12 at ``t_min``.

        Returns the smallest ``m`` with ``exp(-lambda_m t_min) < 1e-12``,
        capped at ``min(N, mode_cap)``.  On a separable system a cap that
        would keep the cos of a cos/sin pair without its sin keeps one mode
        less, so a truncated sum never depends on the basis chosen inside
        the pair.  If the cap bites, a warning reports the truncation level
        ``exp(-lambda_cap t_min)`` (the weight of the last mode kept, which
        bounds every weight left out) and ``truncation`` keeps the largest
        such level.  Every kernel sum passes its time here: one that is not
        positive and finite raises :class:`ParameterError`.
        """
        _check_times(t_min)
        target = _LOG_TRUNC / float(t_min)
        cap = int(min(self._max_modes, self.mode_cap))
        # solved at the full cap, so a later eigenpairs(cap) reads this spectrum
        lam, _ = self.eigenpairs(cap, vectors=False)
        if self.factors is not None:
            lam_all = self.factors._modes[0]
            if cap < lam_all.shape[0] and lam_all[cap] == lam_all[cap - 1]:
                cap -= 1
                lam = lam[:cap]
        above = np.nonzero(lam > target)[0]
        if above.size:
            m = int(above[0]) + 1
        elif cap >= self.size:
            m = cap  # complete spectrum available: no truncation at all
        else:
            level = math.exp(-float(lam[-1]) * t_min)
            warnings.warn(
                f"spectral truncation at {cap} modes keeps exp(-lam t) = "
                f"{level:.2e} at t = {t_min:.3g}",
                stacklevel=_outside_stacklevel(),
            )
            self.truncation = max(self.truncation, level)
            m = cap
        self.modes_used = max(self.modes_used, m)
        return m

    # -- kernel evaluations ------------------------------------------------------

    def _weights(self, t):
        """The truncated spectrum's per-mode weights ``exp(-lambda_p t)``,
        solving the spectrum first if it is short."""
        m = self.modes_for(t)
        return np.exp(-self._lam[:m] * t)

    def heat_kernel(self, t, i, j):
        """Kernel value(s) ``h_t(i, j)`` by spectral summation; ``i`` and
        ``j`` broadcast, so ``(idx[:, None], idx[None, :])`` gives a block."""
        e = self._weights(t)
        m = e.shape[0]
        phi_i = self.spectrum.values(i, m)
        phi_j = phi_i if j is i else self.spectrum.values(j, m)
        return np.einsum("...k,...k->...", phi_i * e, phi_j)

    def kernel_matrix(self, t):
        """The full ``N x N`` kernel matrix ``h_t``."""
        e = self._weights(t)  # solves the spectrum first if it is short
        phi = self.spectrum.values(np.arange(self.size), e.shape[0])
        return (phi * e) @ phi.T

    def heat_diag(self, t, idx):
        """Diagonal values ``h_t(x, x)`` at the nodes ``idx``."""
        nodes = np.atleast_1d(idx)
        return self.heat_kernel(t, nodes, nodes)

    def semigroup(self, vec, t_min):
        """``flow(t, order=0) = (-A)^order e^(-tA) vec`` on all nodes, with ``vec``
        projected once onto the :meth:`modes_for` modes of ``t_min``."""
        m = self.modes_for(t_min)
        spectrum = self.spectrum
        lam = spectrum.lam[:m]
        coeff = spectrum.coefficients(self.mass * np.asarray(vec, dtype=float), m)

        def flow(t, order=0):
            return spectrum.synthesize((-lam) ** order * np.exp(-lam * t) * coeff)

        return flow


def heat_kernel(system: NeumannSystem, t, i, j):
    """Module-level convenience wrapper around the kernel evaluation."""
    return system.heat_kernel(t, i, j)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------


def ricci_negative_part(domain: DiscreteDomain):
    """Per-node negative part ``rho_minus = max(0, -K)`` of the lowest Ricci
    eigenvalue, with ``K`` the Gauss curvature of the two-dimensional chart
    at the node; the interval is flat.  :func:`integral_ricci` and
    :func:`kato_quantity` read it."""
    if domain.kind == "interval":
        return np.zeros(domain.size)
    surf = domain.spec.surface
    return np.maximum(0.0, -surf.gauss_curvature(domain.nodes[:, 0]))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


@dataclass
class DiagonalBoundResult:
    c_obs: float
    t_at: float
    x_at: int
    table: np.ndarray  # rows (t, max-over-x product)

    def to_dict(self):
        return {
            "c_obs": self.c_obs,
            "argmax_t": self.t_at,
            "argmax_node": int(self.x_at),
            "profile": [[float(a), float(b)] for a, b in self.table],
        }


def diagonal_bound_check(domain: DiscreteDomain, system: NeumannSystem,
                         t_grid) -> DiagonalBoundResult:
    """Largest observed ``h_t(x,x) * Vol(B(x, sqrt(t)))`` over 96 sampled nodes.

    The observed constant certifies the diagonal kernel bound shape;
    finiteness and refinement stability are the acceptance checks, the
    constant itself is a measured diagnostic.  An empty grid, or a grid
    time that is not positive and finite, raises :class:`ParameterError`.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    _check_times(t_grid)  # before the square roots
    idx = domain.sample_indices(96)
    diags = np.array([system.heat_diag(t, idx) for t in t_grid])
    prods = diags * domain.ball_sums(idx, np.sqrt(t_grid)).T
    at = np.argmax(prods, axis=1)
    table = np.stack([t_grid, prods[np.arange(t_grid.shape[0]), at]], axis=-1)
    k = int(np.argmax(table[:, 1]))  # the first time that attains the maximum
    return DiagonalBoundResult(float(table[k, 1]), float(t_grid[k]), int(idx[at[k]]), table)


def doubling_constant(domain: DiscreteDomain, R):
    """Smallest C with ``Vol(B(x,t)) <= C (t/s)^n Vol(B(x,s))`` on samples.

    The radii are a geometric grid of 24 from twice the mesh width to
    ``R``, so ``R`` must lie above that; volumes below the mesh scale are
    not meaningful.
    """
    if not 2.0 * domain.mesh_width < R <= domain.diameter() + 1e-12:
        raise ParameterError("doubling radius must lie in (2 mesh_width, diam]")
    radii = np.geomspace(2.0 * domain.mesh_width, R, 24)
    vols = domain.ball_sums(domain.sample_indices(_DOUBLING_SAMPLES), radii)
    # ratio[x, i, j] = Vol(B(x, r_j)) / Vol(B(x, r_i)) * (r_i / r_j)^n; pairs i <= j
    ratio = vols[:, None, :] / vols[:, :, None] \
        * (radii[:, None] / radii[None, :]) ** domain.n
    return max(1.0, float(np.max(np.triu(np.max(ratio, axis=0)))))


def doubling_comparability(domain: DiscreteDomain, s):
    """Worst ``Vol(B(y,s)) / Vol(B(x,s))`` over sampled pairs with d(x,y) <= s.

    Since ``B(y,s)`` is contained in ``B(x,2s)``, the doubling property
    bounds this ratio by ``2^n`` times the doubling constant.
    """
    if not s > 0.0:
        raise ParameterError("comparability radius must be positive")
    idx = domain.sample_indices(_COMPARABILITY_SAMPLES)
    vols = domain.ball_sums(idx, [s])[:, 0]
    near = domain.distance_rows(idx)[:, idx] <= s
    return max(1.0, float(np.max(np.max(np.where(near, vols, 0.0), axis=1) / vols)))


@dataclass
class GNResult:
    c_gn: float
    per_radius: list


def gn_check(domain: DiscreteDomain, system: NeumannSystem, q, r_grid) -> GNResult:
    """Smallest constant in the localized Gagliardo-Nirenberg inequality.

    Checks ``|| v_r^(1/2 - 1/q) f ||_q <= C (||f||_2 + r ||A^(1/2) f||_2)``
    over eigenfunction combinations and seeded random fields, per
    radius.  Requires ``q in (2, inf]`` with ``(q - 2)/q * n < 2``.
    """
    n = domain.n
    q = float(q)
    if not (q > 2.0):
        raise ParameterError("q must exceed 2")
    frac = 1.0 if math.isinf(q) else (q - 2.0) / q
    if frac * n >= 2.0:
        raise ParameterError("inadmissible (q, n): (q-2)/q * n must be < 2")
    alpha = 0.5 - (0.0 if math.isinf(q) else 1.0 / q)
    r_grid = np.asarray(r_grid, dtype=float)
    if not np.all(r_grid > 0.0):
        raise ParameterError("GN radii must be positive")

    rng = np.random.default_rng(_GN_SEED)
    lam, phi = system.eigenpairs(min(10, system.size - 1))
    fields = [phi[:, k] for k in range(phi.shape[1])]
    fields.append(phi[:, 0] + phi[:, min(1, phi.shape[1] - 1)])
    t = (domain.mesh_width * 4.0) ** 2  # the random fields' smoothing time
    for _ in range(_GN_RANDOM_FIELDS):
        fields.append(system.semigroup(rng.normal(size=domain.size), t)(t))

    w = domain.weights
    F = np.stack(fields)
    l2 = np.sqrt(np.sum(w * F**2, axis=1))
    grad = np.sqrt([system.energy(f) for f in F])
    per_radius = []
    for r, v_r in zip(r_grid, domain.ball_sums(np.arange(domain.size), r_grid).T):
        lhs = np.abs(v_r**alpha * F)
        lhs = np.max(lhs, axis=1) if math.isinf(q) else np.sum(w * lhs**q, axis=1) ** (1.0 / q)
        rhs = l2 + r * grad
        per_radius.append((float(r), float(np.max(lhs[rhs > 0.0] / rhs[rhs > 0.0], initial=0.0))))
    return GNResult(max((c for _, c in per_radius), default=0.0), per_radius)


_VEV_PAIRS = {(1.0, 2.0), (1.0, math.inf), (2.0, math.inf), (math.inf, math.inf)}


def vev_norm(system: NeumannSystem, v, p, q, gamma, t):
    """Exact weighted-semigroup operator norm ``|| v^g e^(-tA) v^d ||_{p,q}``.

    ``d`` is fixed by ``g + d = 1/p - 1/q``.  Norms are with respect to
    the mass-weighted lp/lq norms; the supported (p, q) pairs are
    (1,2), (1,inf), (2,inf) and (inf,inf), each reduced to an exact
    kernel expression (max entry, column/row L2 norms, weighted row
    sums).
    """
    p, q = float(p), float(q)
    if (p, q) not in _VEV_PAIRS:
        raise ParameterError(f"unsupported (p, q) = ({p}, {q})")
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ParameterError("the weight must be positive")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    delta = inv_p - inv_q - gamma
    H = system.kernel_matrix(t)
    K = (v**gamma)[:, None] * H * (v**delta)[None, :]
    w = system.mass
    if (p, q) == (1.0, math.inf):
        return float(np.max(np.abs(K)))
    if (p, q) == (1.0, 2.0):
        return float(np.max(np.sqrt(w @ (K**2))))
    if (p, q) == (2.0, math.inf):
        return float(np.max(np.sqrt((K**2) @ w)))
    return float(np.max(np.abs(K) @ w))


def vev_finiteness_sweep(system: NeumannSystem, domain: DiscreteDomain, t0):
    """Sups of the four weighted-semigroup conditions over a time sweep.

    The (1,2) and (2,inf) conditions are swept up to ``t0 / 2`` and the
    (1,inf), (inf,inf) ones up to ``t0``; the weight is the ball-volume
    function at scale ``sqrt(t)``.  Returns the four sups and their
    finiteness flags, which the theory requires to agree.
    """
    _check_times(t0)
    specs = {
        "vEv_inf_inf_half": (math.inf, math.inf, 0.5, t0),
        "vEv_1_inf_half": (1.0, math.inf, 0.5, t0),
        "vEv_1_2_zero": (1.0, 2.0, 0.0, 0.5 * t0),
        "vEv_2_inf_half": (2.0, math.inf, 0.5, 0.5 * t0),
    }
    ts = np.stack([np.geomspace(t_hi / 64.0, t_hi, _VEV_TIMES) for *_, t_hi in specs.values()])
    vols = domain.ball_sums(np.arange(domain.size), np.sqrt(ts.ravel())).T.reshape(*ts.shape, -1)
    out = {}
    for (name, (p, q, gamma, _)), t_row, v_row in zip(specs.items(), ts, vols):
        sup = max(vev_norm(system, v, p, q, gamma, t) for t, v in zip(t_row, v_row))
        out[name] = {"sup": float(sup), "finite": bool(np.isfinite(sup))}
    out["flags_agree"] = len({d["finite"] for d in out.values() if isinstance(d, dict)}) == 1
    return out


def integral_ricci(domain: DiscreteDomain, rho_minus, p, R):
    """Uniform lp-mean of the negative Ricci part over R-balls.

    ``sup_x ( mean_{B(x,R)} rho_minus^p )^(1/p)`` with node-weight
    quadrature, for the per-node array ``rho_minus`` (as
    :func:`ricci_negative_part` gives it); requires ``p > n/2``.
    """
    if p <= domain.n / 2.0:
        raise ParameterError("p must exceed n/2")
    if not R > 0.0:
        raise ParameterError("R must be positive")
    idx = domain.sample_indices(_RICCI_SAMPLES)
    num = domain.ball_sums(idx, [R], domain.weights * rho_minus**p)
    den = domain.ball_sums(idx, [R])
    return float(np.max((num / den) ** (1.0 / p)))


def kato_quantity(system: NeumannSystem, rho_minus, T):
    """Time integral of the sup norm of the heat semigroup on ``rho_minus``.

    ``int_0^T max_x (e^(-tA) rho_minus)(x) dt`` by adaptive quadrature, which
    samples only inner times, with spectral evaluation of the semigroup action.
    """
    from scipy.integrate import quad

    flow = system.semigroup(rho_minus, T / 1e4)
    val, _err = quad(lambda t: float(np.max(flow(t))), 0.0, float(T), limit=200,
                     epsabs=1e-13, epsrel=1e-12)
    return float(val)


def eigenvalue_diagnostic(system: NeumannSystem, domain: DiscreteDomain):
    """First nonzero eigenvalue and its scale-invariant form ``eta1 diam^2``."""
    lam, _ = system.eigenpairs(2, vectors=False)
    eta1 = float(lam[1])
    return eta1, eta1 * domain.diameter() ** 2


@dataclass
class LiYauResult:
    t_grid: np.ndarray
    sup_profile: np.ndarray
    a: float
    b: float
    violations: int
    clipped: bool

    def envelope(self, t):
        return self.a + self.b / np.asarray(t, dtype=float)


def fit_inverse_time_envelope(t_grid, profile):
    """Minimal nonnegative ``(a, b)`` with ``profile <= a + b / t`` on the grid.

    Minimizes ``a + b * mean(1/t)``.  For fixed ``b`` the least ``a`` is
    ``max(0, max_k p_k - b / t_k)``, convex and piecewise linear in
    ``b``, so the optimum lies at ``b = 0`` or at a kink, where a line
    ``p_k - b / t_k`` crosses zero or another line; the objective is
    evaluated exactly at every such candidate.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    profile = np.asarray(profile, dtype=float)
    if not np.all(np.isfinite(profile)):
        raise ParameterError("envelope fit failed: non-finite profile")
    inv = 1.0 / t_grid
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (profile[:, None] - profile[None, :]) / (inv[:, None] - inv[None, :])
    b = np.concatenate([[0.0], profile / inv, cross.ravel()])
    b = np.unique(b[np.isfinite(b) & (b >= 0.0)])
    a = np.zeros_like(b)
    for p_k, inv_k in zip(profile, inv):
        np.maximum(a, p_k - b * inv_k, out=a)
    k = int(np.argmin(a + b * float(np.mean(inv))))
    return float(a[k]), float(b[k])


def li_yau_check(system: NeumannSystem, domain: DiscreteDomain, u0, t_grid) -> LiYauResult:
    """Inverse-time gradient envelope for a positive Neumann heat solution.

    For each time the quantity ``|grad ln u|^2 - d/dt ln u`` is
    maximized over interior nodes; the profile is then covered by a
    fitted envelope ``a + b/t``.  Non-positive solution values (a
    discretization artifact) are clipped, and ``clipped`` says so.  An empty grid,
    or a grid time that is not positive and finite, raises
    :class:`ParameterError`.
    """
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 <= 0.0):
        raise ParameterError("initial data must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    _check_times(t_grid)  # the flow is projected at the smallest time only
    flow = system.semigroup(u0, float(np.min(t_grid)))
    interior = domain.interior_mask()
    clipped = False
    profile = np.empty(t_grid.shape[0])
    for k, t in enumerate(t_grid):
        u, du = flow(t), flow(t, 1)
        floor = 1e-12 * float(np.max(np.abs(u)))
        if np.any(u <= floor):
            clipped = True
            u = np.maximum(u, floor)
        grad = domain.node_gradient(np.log(u))
        lhs = np.sum(grad**2, axis=-1) - du / u
        profile[k] = float(np.max(lhs[interior]))
    a, b = fit_inverse_time_envelope(t_grid, profile)
    slack = 1e-9 * (1.0 + np.abs(profile))
    violations = int(np.count_nonzero(profile > a + b / t_grid + slack))
    return LiYauResult(t_grid, profile, a, b, violations, clipped)
