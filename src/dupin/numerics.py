"""Uniform tensor grids, finite-difference derivatives, sphere fitting and
Jacobi kernels for stacks of small matrices (eigenpairs, singular values).

Every finite difference in the package is `fd_axis` or a row range of it:
`fd_axis` is the whole axis of `_fd_rows`, the one kernel that applies the
stencils, and the oracle calls `_fd_rows` for the rows it reads.

Conventions used across the package:

* Ambient vectors are plain numpy arrays of shape ``(N,)`` with ``N >= 2``.
* A scalar field on a grid is an array of shape ``grid.shape``; an ambient
  vector field has shape ``grid.shape + (N,)``.
* Masks are boolean arrays of shape ``grid.shape`` with True = valid node.
  Every stencil that touches an invalid node produces an invalid node; the
  construction-side checks apply that rule in ``net._fd_nodes``, the oracle
  in ``verify._stencil_valid``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AxisOutOfRange, DegenerateCloud, GridTooSmall

__all__ = [
    "TensorGrid",
    "fd_axis",
    "sphere_fit",
    "SphereFit",
    "AffineFlat",
]

# sphere_fit: relative singular-value threshold of the affine span, and the
# quadratic coefficient (of the unit-RMS cloud) below which the fit is flat
_SPAN_TOL = 1e-8
_FLAT_TOL = 1e-9
# Jacobi kernels: off-diagonal part left relative to the norm, sweep cap (D <= 4
# converges in about six), families per block (bounds the working set), and the
# largest entry change, relative to the family's norm, left to a converged sweep
_EPS = 2.0**-52
_JACOBI_SWEEPS = 12
_JACOBI_BLOCK = 2048
_JACOBI_TOL = 8 * _EPS


@dataclass(frozen=True)
class TensorGrid:
    """Uniform tensor-product grid: per-axis node counts, spacings and origins."""

    shape: tuple
    spacings: tuple
    origins: tuple

    def __init__(self, shape: Sequence[int], spacings: Sequence[float], origins: Sequence[float] | None = None):
        shape = tuple(int(n) for n in shape)
        spacings = tuple(float(h) for h in spacings)
        if origins is None:
            origins = (0.0,) * len(shape)
        origins = tuple(float(o) for o in origins)
        if not (len(shape) == len(spacings) == len(origins)):
            raise ValueError("shape, spacings and origins must have equal length")
        if any(n < 1 for n in shape):
            raise ValueError("axis node counts must be >= 1")
        if any(h <= 0 for h in spacings):
            raise ValueError("spacings must be positive (grids are uniform by construction)")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacings", spacings)
        object.__setattr__(self, "origins", origins)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def axis_coords(self, axis: int) -> np.ndarray:
        self._check_axis(axis)
        return self.origins[axis] + self.spacings[axis] * np.arange(self.shape[axis])

    def meshgrid(self) -> list:
        return list(np.meshgrid(*[self.axis_coords(d) for d in range(self.ndim)], indexing="ij"))

    def _check_axis(self, axis: int) -> None:
        _check_axis(axis, self.ndim)

    def product(self, other: "TensorGrid") -> "TensorGrid":
        return TensorGrid(self.shape + other.shape, self.spacings + other.spacings, self.origins + other.origins)

    def interior_mask(self, layers: int) -> np.ndarray:
        """Boolean mask selecting nodes at least `layers` away from every boundary."""
        m, lay = np.zeros(self.shape, dtype=bool), max(layers, 0)
        m[tuple(slice(lay, max(n - lay, lay)) for n in self.shape)] = True
        return m


def _lift(a: np.ndarray, base_ndim: int, fiber_ndim: int, lead: int = 0) -> np.ndarray:
    """A base field a in the layout of the product grid `base.product(fiber)`:
    a's `lead` leading axes (classes, normals, ...), the base axes, one unit
    axis per fiber axis, then a's value axes.  It broadcasts against every
    field on the product grid."""
    cut = lead + base_ndim
    return a.reshape(a.shape[:cut] + (1,) * fiber_ndim + a.shape[cut:])


def _coord_axis(c: np.ndarray, ndim: int, axis: int) -> np.ndarray:
    """A 1-d axis of coordinates shaped to broadcast along `axis` of an ndim-d grid."""
    return c.reshape((1,) * axis + (-1,) + (1,) * (ndim - 1 - axis))


# fd_axis stencils by derivative order, each as (offsets, coefficients): the
# first and the last row (the last row's offsets mirror the first's, and at
# order 1 so do its coefficients: one coefficient pair per term), the second
# and second-to-last rows, the deep interior
_STENCILS = {
    1: (((0, 1, 2), np.array([[-1.5, 1.5], [2.0, -2.0], [-0.5, 0.5]])),
        ((-1, 1), (-0.5, 0.5)),
        ((-2, -1, 1, 2), (1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12))),
    2: (((0, 1, 2, 3), np.array([[2.0, 2.0], [-5.0, -5.0], [4.0, 4.0], [-1.0, -1.0]])),
        ((-1, 0, 1), (1.0, -2.0, 1.0)),
        ((-2, -1, 0, 1, 2), (-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12))),
}


def _check_axis(axis: int, ndim: int) -> None:
    """AxisOutOfRange unless 0 <= axis < ndim; a negative axis is refused."""
    if not 0 <= axis < ndim:
        raise AxisOutOfRange(f"axis {axis} out of range for {ndim} axes")


def _stencil_sum(terms, scale):
    """The sum of c * rows over the (c, rows) terms in offset order, then scaled."""
    (c, rows), *rest = terms
    total = c * rows
    for c, rows in rest:
        total += c * rows
    total *= scale
    return total


def _stencil_rows(v, lo, hi, stencil, scale):
    """Rows lo..hi-1 of a stencil along the first axis of v."""
    return _stencil_sum([(c, v[lo + off:hi + off]) for off, c in zip(*stencil)], scale)


def _mirrored(v, off):
    """Rows off and n-1-off of v (n rows), the reads of the first and the
    last row's stencil term at offset off: a (2, ...) view, or the one row
    (1, ...), which broadcasts, where the two meet."""
    step = len(v) - 1 - 2 * off
    return v[off::step][:2] if step else v[off:off + 1]


def fd_axis(values: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """Finite-difference derivative of `order` (1 or 2) along `axis`.

    Fourth-order central stencils on the deep interior (two layers in);
    second-order central stencils on the second and second-to-last rows and
    one-sided second-order stencils on the boundary rows.
    """
    values = np.asarray(values, dtype=float)
    _check_axis(axis, values.ndim)
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    return _fd_rows(values, h, axis, order, 0, values.shape[axis], np.empty_like(values))


def _fd_rows(values: np.ndarray, h: float, axis: int, order: int, lo: int, hi: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Rows lo..hi-1 along `axis` of `fd_axis(values, h, axis, order)`,
    written to out (hi - lo rows along axis) when it is given.  Each row
    takes its own row's stencil, so a row range reads at most three rows
    beyond it and equals the whole-axis derivative there bit for bit.
    Three stencil passes: the deep rows, the mirrored rows {0, n-1} together
    and the rows {1, n-2} together, each pair's per-element sums in offset
    order as one row's.  The deep rows are summed in a temporary laid out
    as values is (summed into a strided out, numpy loops over short runs of
    it instead), and that temporary is the result when no out is given and
    the range holds deep rows only.  An axis outside [0, values.ndim)
    raises AxisOutOfRange."""
    values = np.asarray(values, dtype=float)
    _check_axis(axis, values.ndim)
    n = values.shape[axis]
    if n < 5:
        raise GridTooSmall(f"need >= 5 nodes along axis {axis}, got {n}")
    v = values.swapaxes(0, axis)
    edge, near, deep = _STENCILS[order]
    scale = 1.0 / h**order
    a, b = max(2, lo), min(n - 2, hi)
    if out is None and (a, b) == (lo, hi):
        return _stencil_rows(v, a, b, deep, scale).swapaxes(0, axis)
    if out is None:
        out = np.empty(values.shape[:axis] + (hi - lo,) + values.shape[axis + 1:])
    o = out.swapaxes(0, axis)
    if a < b:
        o[a - lo:b - lo] = _stencil_rows(v, a, b, deep, scale)
    for row in (0, 1):
        last = n - 1 - row
        first_in, last_in = lo <= row < hi, lo <= last < hi
        if not (first_in or last_in):
            continue
        if row:
            pair = _stencil_sum([(c, v[1 + off:last + 1 + off:last - 1]) for off, c in zip(*near)], scale)
        else:
            coef = edge[1].reshape(edge[1].shape + (1,) * (v.ndim - 1))
            pair = _stencil_sum([(c, _mirrored(v, off)) for off, c in zip(edge[0], coef)], scale)
        if first_in and last_in:
            o[row - lo:last - lo + 1:last - row] = pair
        elif first_in:
            o[row - lo] = pair[0]
        else:
            o[last - lo] = pair[1]
    return out


def _sum_last(x: np.ndarray) -> np.ndarray:
    """x.sum(-1) bit for bit.  numpy adds a last axis shorter than 8 in
    index order, starting from +0.0 (an all -0.0 row sums to +0.0); the
    same adds, one array operation per entry, skip numpy's per-row
    reduction overhead.  A longer axis takes numpy's pairwise sum."""
    n = x.shape[-1]
    if not 0 < n < 8:
        return x.sum(-1)
    out = x[..., 0] + 0.0
    for i in range(1, n):
        out += x[..., i]
    return out


def _erode_mask(mask: np.ndarray, axis: int, width: int) -> np.ndarray:
    """Invalidate every node whose +-width window along axis touches an invalid node."""
    out = mask.copy()
    m, o = mask.swapaxes(0, axis), out.swapaxes(0, axis)
    n = len(m)
    for off in range(1, min(width, n) + 1):
        o[:n - off] &= m[off:]
        o[off:] &= m[:n - off]
    return out


@dataclass(frozen=True)
class SphereFit:
    center: np.ndarray
    radius: float
    residual: float
    sphere_dim: int           # dimension of the fitted round sphere


@dataclass(frozen=True)
class AffineFlat:
    point: np.ndarray
    basis: np.ndarray         # (dim, N), orthonormal rows
    dim: int
    residual: float


def sphere_fit(points):
    """Least-squares algebraic sphere through a point cloud, or its affine span.

    The cloud is first reduced to its minimal affine span (SVD rank with
    relative threshold _SPAN_TOL); the algebraic fit
    a*|q|^2 + <b,q> + c = 0 runs inside the span.  When the quadratic
    coefficient `a` is below _FLAT_TOL (after normalising the cloud to unit
    RMS radius) the span itself is returned as an AffineFlat.  Residual is
    the RMS of | |p-center| - radius | over the input points.  This is the
    one-cloud case of `_sphere_fits`.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ValueError("points must be a (m, N) array")
    rank, flat, centroid, Vt, center, radius, residual = _sphere_fits(P[None])
    if flat[0]:
        return AffineFlat(point=centroid[0], basis=Vt[0, :rank[0]].copy(), dim=int(rank[0]),
                          residual=float(residual[0]))
    return SphereFit(center=center[0], radius=float(radius[0]), residual=float(residual[0]),
                     sphere_dim=int(rank[0]) - 1)


def _norms(x: np.ndarray) -> np.ndarray:
    """Row norms of x (n, d) by one dot product per row, as `np.linalg.norm`
    takes the norm of one vector."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _sphere_fits(clouds):
    """`sphere_fit` of a stack of clouds (L, m, N); the clouds of one span
    rank are fitted together, each as it would be alone.

    Returns the span ranks (L,), the mask of flat clouds (L,), the centroids
    (L, N), the right singular vectors Vt (L, min(m, N), N) whose first
    `rank` rows span each cloud, and the centres (L, N), radii (L,) and
    residuals (L,).  A flat cloud keeps a NaN centre and radius, and its
    residual is the RMS distance to its affine span.  Raises DegenerateCloud
    when the points of some cloud coincide.
    """
    P = np.asarray(clouds, dtype=float)
    L, m, N = P.shape
    centroid = P.mean(axis=1)                                # (L, N)
    Q = P - centroid[:, None]
    spread = np.sqrt((Q**2).sum(axis=2).mean(axis=1))        # (L,)
    if (spread < 1e-13 * (1.0 + np.linalg.norm(centroid, axis=1))).any():
        raise DegenerateCloud("all points coincide")

    _, s, Vt = np.linalg.svd(Q, full_matrices=False)
    ranks = np.sum(s > _SPAN_TOL * s[:, :1], axis=1)
    flat = np.ones(L, dtype=bool)
    center, radius, residual = np.full((L, N), np.nan), np.full(L, np.nan), np.empty(L)
    for rank in np.unique(ranks):
        at = np.flatnonzero(ranks == rank)
        basis = Vt[at, :rank]                                # (n, rank, N)
        q = Q[at] @ basis.swapaxes(-1, -2)                   # span coordinates, (n, m, rank)
        off_rms = np.sqrt(((Q[at] - q @ basis) ** 2).sum(axis=2).mean(axis=1))
        residual[at] = off_rms
        if rank < 2:
            # a 0-sphere is two points; treat 1-d spreads as affine lines
            continue

        # normalise to unit RMS radius for a scale-free flatness threshold
        qs = q / spread[at, None, None]
        A = np.concatenate([(qs**2).sum(axis=2, keepdims=True), qs, np.ones((len(at), m, 1))], axis=2)
        coef = np.linalg.svd(A, full_matrices=False)[2][:, -1]      # (n, rank + 2)
        curved = np.abs(coef[:, 0]) >= _FLAT_TOL * _norms(coef)
        at, coef, basis, off_rms = at[curved], coef[curved], basis[curved], off_rms[curved]
        a, b, c, sp = coef[:, 0], coef[:, 1 : 1 + rank], coef[:, -1], spread[at]
        center_span = -b / (2.0 * a[:, None]) * sp[:, None]
        r2 = (_norms(b) ** 2 - 4.0 * a * c) / (4.0 * a * a) * sp**2
        real = r2 > 0
        at, basis, off_rms, sp = at[real], basis[real], off_rms[real], sp[real]
        rad = np.sqrt(r2[real])
        cen = centroid[at] + (center_span[real, None] @ basis)[:, 0]
        dist = np.linalg.norm(P[at] - cen[:, None], axis=2)
        res = np.sqrt(((dist - rad[:, None]) ** 2).mean(axis=1))
        # a cloud that fills a proper affine subspace without fitting any
        # sphere in it: the flat is the exact container, the sphere is not
        keep = ~((rank < N) & (res > np.maximum(10.0 * off_rms, 1e-8 * sp)))
        at = at[keep]
        flat[at] = False
        center[at], radius[at], residual[at] = cen[keep], rad[keep], res[keep]
    return ranks, flat, centroid, Vt, center, radius, residual


def _jacobi_angle(d, b):
    """Cosine, sine and squared size of the Jacobi rotation of pair (p, q) for
    a family (m, n) with a_pp - a_qq = d and a_pq = b: the angle in [-pi/4,
    pi/4] minimizing sum_r a_pq^2 after it (Cardoso & Souloumiac, SIAM J.
    Matrix Anal. Appl. 17, 1996); size sin^2 |sum_r (d_r - 2i b_r)^2|."""
    x, y = (d * d - 4.0 * b * b).sum(0), -4.0 * (d * b).sum(0)
    s = np.sin(0.25 * np.arctan2(y, x))
    ss = s * s
    return np.sqrt(1.0 - ss), s, ss * np.sqrt(x * x + y * y)


def _joint_eigh(A: np.ndarray, key):
    """Simultaneous diagonalization of families of symmetric D x D matrices,
    D <= 4: A (m, *shape, D, D) gives the diagonals w (m, *shape, D) of
    Q^T A_r Q and one orthogonal Q (*shape, D, D) per family, its columns
    ordered by ascending key(w) (*shape, D), stable on ties.
    Cyclic Jacobi sweeps by `_jacobi_angle` over blocks of _JACOBI_BLOCK
    families (each matrix entry one array).  From the second sweep on, a
    family stops once its off-diagonal part is within _JACOBI_TOL times its
    norm, or once a sweep's rotations would change none of its entries by
    more than that, and a pair whose rotation would not do so leaves it
    alone: each family's result is the one it gets alone, bit for bit,
    whichever families share its block.  For commuting families this
    converges locally quadratically (Bunse-Gerstner, Byers & Mehrmann, SIAM
    J. Matrix Anal. Appl. 14, 1993); an orthogonal mixing of a family leaves
    its Q the same.  A NaN entry gives NaN diagonals and Q."""
    m, shape, D = A.shape[0], A.shape[1:-2], A.shape[-1]
    A = A.reshape(m, -1, D, D)
    w, Vt = np.empty(A.shape[:-1]), np.empty(A.shape[1:])        # Vt: eigenvectors as rows
    pairs = list(itertools.combinations(range(D), 2))
    for lo in range(0, A.shape[1], _JACOBI_BLOCK):
        B = A[:, lo:lo + _JACOBI_BLOCK]
        # the rotations replace entries, so they start as views of B; a[p][q]
        # and a[q][p] stay one array, and v (D, D, n) is updated a column at a time
        a = [[B[:, :, min(i, j), max(i, j)] for j in range(D)] for i in range(D)]
        v = np.zeros((D, D, B.shape[1]))
        v.reshape(D * D, -1)[::D + 1] = 1.0
        tol = _JACOBI_TOL**2 * (B * B).sum(axis=(0, 2, 3))
        with np.errstate(invalid="ignore", over="ignore"):
            for sweep in range(_JACOBI_SWEEPS):
                if sweep:
                    live = sum((a[p][q] ** 2).sum(0) for p, q in pairs) > tol     # the families not yet done
                    if not live.any():
                        break
                done = True
                for p, q in pairs:
                    d, apq = a[p][p] - a[q][q], a[p][q]
                    c, s, moved = _jacobi_angle(d, apq)
                    turn = None                                   # every family turns in sweep 0
                    if sweep:
                        turn = live & (moved > tol)
                        if not turn.any():
                            continue
                        turn = None if turn.all() else turn
                    done = False
                    shift = s * (s * d + (2.0 * c) * apq)
                    app, aqq = a[p][p], a[q][q]
                    a[p][p], a[q][q] = _turned(turn, app - shift, app), _turned(turn, aqq + shift, aqq)
                    a[p][q] = a[q][p] = _turned(turn, (c * s) * d + (c * c - s * s) * apq, apq)
                    for r in range(D):
                        if r != p and r != q:
                            arp, arq = a[r][p], a[r][q]
                            a[r][p] = a[p][r] = _turned(turn, c * arp - s * arq, arp)
                            a[r][q] = a[q][r] = _turned(turn, s * arp + c * arq, arq)
                    vp, vq = v[:, p], v[:, q]
                    v[:, p], v[:, q] = _turned(turn, c * vp - s * vq, vp), _turned(turn, s * vp + c * vq, vq)
                if done:
                    break
        for i in range(D):
            w[:, lo:lo + _JACOBI_BLOCK, i] = a[i][i]
        Vt[lo:lo + _JACOBI_BLOCK] = v.transpose(2, 1, 0)
    at = np.argsort(key(w), axis=-1, kind="stable") + D * np.arange(len(Vt))[:, None]
    cols = Vt.reshape(-1, D)[at].swapaxes(-1, -2)
    return w.reshape(m, -1)[:, at].reshape((m,) + shape + (D,)), cols.reshape(shape + (D, D))


def _turned(turn, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """A rotated entry: new for every family, or only where turn (n,) is set."""
    return new if turn is None else np.where(turn, new, old)


def _singular_values(C: np.ndarray) -> np.ndarray:
    """Singular values (descending) of a stack of small matrices (n, m, p),
    min(m, p) per matrix: `np.linalg.svd(C, compute_uv=False)` by one-sided
    Jacobi rotations of the shorter side's vectors until they are orthogonal
    to _EPS; for min(m, p) = 1 this is the norm."""
    cols = list(C.transpose(2, 0, 1) if C.shape[-1] <= C.shape[-2] else C.transpose(1, 0, 2))   # each (n, L)
    if len(cols) == 1:
        return np.sqrt((cols[0] * cols[0]).sum(-1))[:, None]
    pairs = list(itertools.combinations(range(len(cols)), 2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_JACOBI_SWEEPS):
            done = True
            for p, q in pairs:
                x, y = cols[p], cols[q]
                xx, yy, xy = (x * x).sum(-1), (y * y).sum(-1), (x * y).sum(-1)
                if not (np.abs(xy) > _EPS * np.sqrt(xx * yy)).any():
                    continue
                done = False
                c, s, _ = _jacobi_angle((xx - yy)[None], xy[None])
                cols[p] = c[:, None] * x - s[:, None] * y
                cols[q] = s[:, None] * x + c[:, None] * y
            if done:
                break
    sv = np.sqrt(np.array([(x * x).sum(-1) for x in cols]).T)        # (n, min(m, p))
    return -np.sort(-sv, axis=1)
