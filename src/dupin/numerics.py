"""Uniform tensor grids, finite-difference derivatives and sphere fitting.

Conventions used across the package:

* Ambient vectors are plain numpy arrays of shape ``(N,)`` with ``N >= 2``.
* A scalar field on a grid is an array of shape ``grid.shape``; an ambient
  vector field has shape ``grid.shape + (N,)``.
* Masks are boolean arrays of shape ``grid.shape`` with True = valid node.
  Every stencil that touches an invalid node produces an invalid node; the
  oracle applies that rule in ``verify._stencil_valid``.
"""

from __future__ import annotations

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
        return int(np.prod(self.shape))

    def axis_coords(self, axis: int) -> np.ndarray:
        self._check_axis(axis)
        return self.origins[axis] + self.spacings[axis] * np.arange(self.shape[axis])

    def meshgrid(self) -> list:
        return list(np.meshgrid(*[self.axis_coords(d) for d in range(self.ndim)], indexing="ij"))

    def point(self, idx: Sequence[int]) -> np.ndarray:
        return np.array([self.origins[d] + self.spacings[d] * idx[d] for d in range(self.ndim)])

    def _check_axis(self, axis: int) -> None:
        if not 0 <= axis < self.ndim:
            raise AxisOutOfRange(f"axis {axis} out of range for {self.ndim}-d grid")

    def product(self, other: "TensorGrid") -> "TensorGrid":
        return TensorGrid(self.shape + other.shape, self.spacings + other.spacings, self.origins + other.origins)

    def interior_mask(self, layers: int) -> np.ndarray:
        """Boolean mask selecting nodes at least `layers` away from every boundary."""
        m = np.ones(self.shape, dtype=bool)
        if layers <= 0:
            return m
        for d in range(self.ndim):
            idx = np.arange(self.shape[d])
            keep = (idx >= layers) & (idx < self.shape[d] - layers)
            sl = [None] * self.ndim
            sl[d] = slice(None)
            m &= keep[tuple(sl)]
        return m


def fd_axis(values: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """Finite-difference derivative of `order` (1 or 2) along `axis`.

    Fourth-order central stencils on the deep interior (two layers in);
    second-order central stencils on the second and second-to-last rows and
    one-sided second-order stencils on the boundary rows.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[axis]
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    if n < 5:
        raise GridTooSmall(f"need >= 5 nodes along axis {axis}, got {n}")

    if order == 1:
        scale = 1.0 / h
        first = ((0, 1, 2), (-1.5, 2.0, -0.5))
        last = ((0, -1, -2), (1.5, -2.0, 0.5))
        central = ((-1, 1), (-0.5, 0.5))
        deep = ((-2, -1, 1, 2), (1.0 / 12, -8.0 / 12, 8.0 / 12, -1.0 / 12))
    else:
        scale = 1.0 / h**2
        first = ((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0))
        last = ((0, -1, -2, -3), (2.0, -5.0, 4.0, -1.0))
        central = ((-1, 0, 1), (1.0, -2.0, 1.0))
        deep = ((-2, -1, 0, 1, 2), (-1.0 / 12, 16.0 / 12, -30.0 / 12, 16.0 / 12, -1.0 / 12))

    out = np.empty_like(values)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)

    def put(lo, hi, stencil):
        # rows lo..hi-1: terms summed in offset order, then scaled
        total = None
        for off, c in zip(*stencil):
            term = c * v[lo + off:hi + off]
            total = term if total is None else total + term
        o[lo:hi] = total * scale

    put(0, 1, first)
    put(n - 1, n, last)
    put(1, 2, central)
    put(n - 2, n - 1, central)
    put(2, n - 2, deep)
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
    the RMS of | |p-center| - radius | over the input points.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ValueError("points must be a (m, N) array")
    m, N = P.shape
    centroid = P.mean(axis=0)
    Q = P - centroid
    spread = np.sqrt((Q**2).sum(axis=1).mean())
    if spread < 1e-13 * (1.0 + np.linalg.norm(centroid)):
        raise DegenerateCloud("all points coincide")

    U, s, Vt = np.linalg.svd(Q, full_matrices=False)
    rank = int(np.sum(s > _SPAN_TOL * s[0]))
    basis = Vt[:rank]                       # (rank, N)
    q = Q @ basis.T                         # span coordinates, (m, rank)
    off_span = Q - q @ basis
    off_rms = float(np.sqrt((off_span**2).sum(axis=1).mean()))

    def flat():
        return AffineFlat(point=centroid.copy(), basis=basis.copy(), dim=rank, residual=off_rms)

    if rank < 2:
        # a 0-sphere is two points; treat 1-d spreads as affine lines
        return flat()

    # normalise to unit RMS radius for a scale-free flatness threshold
    qs = q / spread
    A = np.column_stack([(qs**2).sum(axis=1), qs, np.ones(m)])
    _, _, Wt = np.linalg.svd(A, full_matrices=False)
    coef = Wt[-1]
    a, b, c = coef[0], coef[1 : 1 + rank], coef[-1]
    if abs(a) < _FLAT_TOL * np.linalg.norm(coef):
        return flat()
    center_span = -b / (2.0 * a) * spread
    r2 = (np.linalg.norm(b) ** 2 - 4.0 * a * c) / (4.0 * a * a) * spread**2
    if r2 <= 0:
        return flat()
    radius = float(np.sqrt(r2))
    center = centroid + center_span @ basis
    dist = np.linalg.norm(P - center, axis=1)
    residual = float(np.sqrt(((dist - radius) ** 2).mean()))
    if rank < N and residual > max(10.0 * off_rms, 1e-8 * spread):
        # the cloud fills a proper affine subspace without fitting any sphere
        # in it: the flat is the exact container, the sphere is not
        return flat()
    return SphereFit(center=center, radius=radius, residual=residual, sphere_dim=rank - 1)


def _sphere_fit_batch(clouds):
    """`sphere_fit` residuals of a stack of clouds (L, m, N), step for step
    batched, or None when some cloud leaves the round-sphere branch: a
    coincident or flat cloud, or span ranks that differ between clouds.
    Callers then fit the clouds one by one."""
    P = np.asarray(clouds, dtype=float)
    L, m, N = P.shape
    centroid = P.mean(axis=1)                                # (L, N)
    Q = P - centroid[:, None]
    spread = np.sqrt((Q**2).sum(axis=2).mean(axis=1))        # (L,)
    if (spread < 1e-13 * (1.0 + np.linalg.norm(centroid, axis=1))).any():
        return None

    _, s, Vt = np.linalg.svd(Q, full_matrices=False)
    ranks = np.sum(s > _SPAN_TOL * s[:, :1], axis=1)
    rank = int(ranks[0])
    if rank < 2 or (ranks != rank).any():
        return None
    basis = Vt[:, :rank]                                     # (L, rank, N)
    q = Q @ basis.swapaxes(-1, -2)                           # (L, m, rank)
    off_span = Q - q @ basis
    off_rms = np.sqrt((off_span**2).sum(axis=2).mean(axis=1))

    qs = q / spread[:, None, None]
    A = np.concatenate([(qs**2).sum(axis=2, keepdims=True), qs, np.ones((L, m, 1))], axis=2)
    _, _, Wt = np.linalg.svd(A, full_matrices=False)
    coef = Wt[:, -1]                                         # (L, rank + 2)
    a, b, c = coef[:, 0], coef[:, 1 : 1 + rank], coef[:, -1]
    if (np.abs(a) < _FLAT_TOL * np.linalg.norm(coef, axis=1)).any():
        return None
    center_span = -b / (2.0 * a[:, None]) * spread[:, None]
    r2 = (np.linalg.norm(b, axis=1) ** 2 - 4.0 * a * c) / (4.0 * a * a) * spread**2
    if (r2 <= 0).any():
        return None
    radius = np.sqrt(r2)
    center = centroid + (center_span[:, None] @ basis)[:, 0]
    dist = np.linalg.norm(P - center[:, None], axis=2)
    residual = np.sqrt(((dist - radius[:, None]) ** 2).mean(axis=1))
    if rank < N and (residual > np.maximum(10.0 * off_rms, 1e-8 * spread)).any():
        return None
    return residual
