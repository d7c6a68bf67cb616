"""Holonomic principal nets and discretized immersions.

A *triple* ``(v, h, V)`` encodes a holonomic submanifold in principal
coordinates: per-class Lame coefficients ``v_m``, rotation coefficients
``h_{jm}`` and normalized shape coefficients ``V_m^r`` with respect to a
parallel orthonormal normal frame.  The class map sends each coordinate
index ``i`` to its class ``i'``.

Sign conventions (fixed here, documented once):

* ``A_xi X = -(d xi / du)_tangent / v`` so that ``<alpha(X,X), xi_r> = V_{i'}^r / v_{i'}``.
* Lame coefficients are carried *signed*: ``dg/du_i = v_{i'} X_i`` with unit
  ``X_i``; a sign flip of ``v_m`` together with ``V_m^r`` and the h-row is a
  gauge change.  Flipping a frame vector ``xi_r`` flips ``V_m^r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatch, NotParallel, ZeroLame
from .numerics import TensorGrid, _erode_mask, fd_axis

__all__ = [
    "ClassMap",
    "Triple",
    "ParallelNormalSubbundle",
    "ImmersionSample",
    "PrincipalData",
    "ResidualReport",
    "validate_triple",
    "principal_normals_from_triple",
    "attach_subbundle",
]

_INTERIOR_LAYERS = 2       # boundary node layers the fd residual checks leave out
_FD_REACH = 2              # nodes an fd_axis stencil reads on either side along its axis
_ZERO_LAME = 1e-12         # |v| below this counts as a vanishing Lame coefficient
_PARALLEL_TOL = 1e-6       # largest normal-connection residual of a parallel frame
_GRAM_TOL = 1e-8           # largest Gram defect of an integrated or loaded frame


@dataclass(frozen=True)
class ClassMap:
    """Map from coordinate indices to eigenbundle classes (0-based)."""

    classes: tuple

    def __init__(self, classes: Sequence[int]):
        classes = tuple(int(c) for c in classes)
        # onto 0..k-1 with k = max + 1: no negative index and k distinct ones
        if classes and (min(classes) < 0 or len(set(classes)) != max(classes) + 1):
            raise ValueError("class indices must be surjective onto 0..k-1")
        object.__setattr__(self, "classes", classes)

    @property
    def n_coords(self) -> int:
        return len(self.classes)

    @property
    def n_classes(self) -> int:
        return max(self.classes, default=-1) + 1

    @property
    def multiplicities(self) -> tuple:
        mult = [0] * self.n_classes
        for c in self.classes:
            mult[c] += 1
        return tuple(mult)

    def is_simple(self) -> bool:
        """True when every class contains exactly one coordinate."""
        return self.n_coords == self.n_classes

    @staticmethod
    def simple(n: int) -> "ClassMap":
        return ClassMap(tuple(range(n)))


@dataclass
class Triple:
    """The (v, h, V) data of a holonomic net on a tensor grid.

    Shapes: ``v`` is (k, *grid.shape); ``h`` is (D, k, *grid.shape) with
    ``h[j, m] = v_{j'}^{-1} d v_m / d u_j``; ``V`` is (k, R, *grid.shape)
    where R counts parallel normal frame fields.  A closed-form triple
    carries ``analytic``: called with coordinate points of shape ``(..., D)``
    it returns ``{"v": (k, ...), "h": (D, k, ...), "V": (k, R, ...)}``.
    """

    grid: TensorGrid
    class_map: ClassMap
    v: np.ndarray
    h: np.ndarray
    V: np.ndarray
    mask: np.ndarray | None = None
    analytic: Callable[[np.ndarray], dict] | None = None

    def __post_init__(self):
        k = self.class_map.n_classes
        D = self.grid.ndim
        self.v = np.asarray(self.v, dtype=float)
        self.h = np.asarray(self.h, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        if self.class_map.n_coords != D:
            raise GridMismatch("class map arity does not match grid dimension")
        if self.v.shape != (k,) + self.grid.shape:
            raise ValueError(f"v shape {self.v.shape} != {(k,) + self.grid.shape}")
        if self.h.shape[:2] != (D, k) or self.h.shape[2:] != self.grid.shape:
            raise ValueError(f"h shape {self.h.shape} is not (D, k, *grid)")
        if self.V.shape[0] != k or self.V.shape[2:] != self.grid.shape:
            raise ValueError(f"V shape {self.V.shape} is not (k, R, *grid)")

    @property
    def n_classes(self) -> int:
        return self.class_map.n_classes

    @property
    def n_normals(self) -> int:
        return self.V.shape[1]

    def lame(self) -> np.ndarray:
        """Per-coordinate signed Lame coefficients v_{i'}, shape (D, *grid)."""
        idx = np.array(self.class_map.classes)
        return self.v[idx]

    @np.errstate(divide="ignore", invalid="ignore")     # masked nodes may hold v = 0
    def sff(self) -> np.ndarray:
        """Per-coordinate shape coefficients <alpha(X_i, X_i), xi_r> =
        V_{i'}^r / v_{i'}, shape (D, R, *grid)."""
        out = np.empty((self.grid.ndim, self.n_normals) + self.grid.shape)
        for i, c in enumerate(self.class_map.classes):
            np.divide(self.V[c], self.v[c], out=out[i])
        return out

    def valid(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.grid.shape, dtype=bool)
        return self.mask


@dataclass(frozen=True)
class ParallelNormalSubbundle:
    """Indices of parallel frame vectors spanning a flat normal subbundle."""

    indices: tuple
    residual: float = 0.0

    def __init__(self, indices: Sequence[int], residual: float = 0.0):
        object.__setattr__(self, "indices", tuple(int(i) for i in indices))
        object.__setattr__(self, "residual", float(residual))

    @property
    def rank(self) -> int:
        return len(self.indices)


@dataclass
class ImmersionSample:
    """Discretized immersion: positions, unit tangents, parallel normals, forms.

    ``tangents`` has shape (D, *grid, N) and ``normals`` (R, *grid, N); both
    optional for position-only patches fed to the finite-difference oracle.
    ``sff`` caches <alpha(X_i, X_i), xi_r> as an array (D, R, *grid).  A
    sample built with a triple and without ``lame`` or ``sff`` takes them
    from the triple (`Triple.lame`, `Triple.sff`).
    """

    grid: TensorGrid
    positions: np.ndarray
    tangents: np.ndarray | None = None
    normals: np.ndarray | None = None
    lame: np.ndarray | None = None
    sff: np.ndarray | None = None
    triple: Triple | None = None
    mask: np.ndarray | None = None
    reports: dict | None = None      # health numbers of the integration that built it

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.shape[:-1] != self.grid.shape:
            raise ValueError("positions must have shape (*grid, N)")
        if self.triple is not None:
            if self.lame is None:
                self.lame = self.triple.lame()
            if self.sff is None:
                self.sff = self.triple.sff()

    @property
    def ambient_dim(self) -> int:
        return self.positions.shape[-1]

    @property
    def n_normals(self) -> int:
        return 0 if self.normals is None else self.normals.shape[0]

    def valid(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.grid.shape, dtype=bool)
        return self.mask

    def has_frames(self) -> bool:
        return self.tangents is not None and self.normals is not None

    def frame_residuals(self) -> dict:
        """The frame's Gram defect at the valid nodes, and the largest fd
        residual of dg/du_i = lame_i X_i at the nodes `_fd_nodes` checks."""
        out = {}
        if not self.has_frames():
            return out
        valid = self.valid()
        out["gram"] = _gram_defect((self.tangents, self.normals), valid)
        if self.lame is not None:
            nodes = _fd_nodes(self.grid, valid)
            err = 0.0
            with np.errstate(invalid="ignore", over="ignore"):      # masked nodes may hold infinities
                for i in range(self.grid.ndim):
                    dg = fd_axis(self.positions, self.grid.spacings[i], i, 1)
                    res = dg - self.lame[i][..., None] * self.tangents[i]
                    err = _worst(np.moveaxis(res, -1, 0), nodes, err)
            out["dg_vs_vX"] = err
        return out


@dataclass
class PrincipalData:
    """Principal normals and eigenbundle data of a proper submanifold patch.

    ``eta`` holds the k principal normals as ambient fields (k, *grid, N),
    ``multiplicities`` the size of each group of eigendirections.  The
    independent extraction path (`verify.extract_principal_normals`) also
    keeps, per node, its eigenframe and class order: ``eigenframe``
    (*grid, D, D) holds the chart components E Q of a g-orthonormal
    eigenbasis as columns, class j's block of
    ``multiplicities[order[..., j]]`` columns after the blocks of classes
    0..j-1, and ``order`` (*grid, k) the group that class j takes.  Both are
    zero at nodes outside ``mask``.  The eigenbundle projectors are not
    stored: the derived checks of `verify` form them from these two and the
    metric where they read them (`verify._class_projectors`).
    """

    eta: np.ndarray
    multiplicities: tuple
    mask: np.ndarray | None = None
    eigenframe: np.ndarray | None = None
    order: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.eta.shape[0]


@dataclass
class ResidualReport:
    """Per-equation max residuals with a pass/fail verdict.  A non-empty
    `failure` says why the check cannot pass whatever the residuals are."""

    residuals: dict
    tol: float
    masked_fraction: float = 0.0
    failure: str = ""

    @property
    def max_residual(self) -> float:
        """The largest finite residual; NaN when none is finite."""
        vals = [v for v in self.residuals.values() if np.isfinite(v)]
        return float(max(vals)) if vals else float("nan")

    @property
    def passed(self) -> bool:
        return not self.failure and self.max_residual < self.tol

    def rows(self) -> list:
        """CSV-ready rows: (equation id, max residual, masked fraction)."""
        return [(k, float(v), self.masked_fraction) for k, v in self.residuals.items()]

    def __str__(self):
        body = ", ".join(f"{k}={v:.3e}" for k, v in self.residuals.items())
        failure = f"; {self.failure}" if self.failure else ""
        return f"ResidualReport({body}; tol={self.tol:g}, pass={self.passed}{failure})"


# the node rule of the construction-side checks: a pointwise check reads the valid nodes,
# an fd check the nodes `_fd_nodes` gives, and a non-finite value there fails the check

def _fd_nodes(grid: TensorGrid, valid: np.ndarray) -> np.ndarray:
    """The nodes an fd check reads: the valid nodes whose stencils, _FD_REACH
    nodes each way along every axis, read valid nodes only, without the
    _INTERIOR_LAYERS boundary layers when any such node lies inside them."""
    checked = valid.copy()
    for ax in range(grid.ndim):
        checked &= _erode_mask(valid, ax, _FD_REACH)
    inner = checked & grid.interior_mask(_INTERIOR_LAYERS)
    return inner if inner.any() else checked


def _worst(a: np.ndarray, nodes: np.ndarray, r: float = 0.0) -> float:
    """r and the largest |a| over the nodes (a boolean grid mask) of a field
    a (..., *grid).  A NaN among them carries through, and no node gives NaN."""
    return float(np.abs(a).max(initial=r, where=nodes)) if nodes.any() else float("nan")


@np.errstate(invalid="ignore", over="ignore")      # masked nodes may hold infinities
def _gram_defect(frames: Sequence[np.ndarray], valid: np.ndarray) -> float:
    """The largest |<F_a, F_b> - delta_ab| over the valid nodes of the frame
    fields F stacked from frames, each (n, *grid, N); see `_worst`.  Each
    product is summed in index order, not by BLAS, so the value does not
    depend on the BLAS build."""
    F = [f for frame in frames for f in frame]               # each (*grid, N)
    worst, term = 0.0, np.empty(F[0].shape[:-1])
    for a in range(len(F)):
        for b in range(a, len(F)):
            dot = F[a][..., 0] * F[b][..., 0]
            for k in range(1, F[a].shape[-1]):
                dot += np.multiply(F[a][..., k], F[b][..., k], out=term)
            if a == b:
                dot -= 1.0
            worst = _worst(dot, valid, worst)
    return worst


@np.errstate(invalid="ignore", over="ignore")      # masked nodes may hold infinities
def validate_triple(t: Triple, tol: float = 1e-6) -> ResidualReport:
    """Residuals of the first-order net system for a candidate triple.

    Checks, by finite differences on the component fields:
      (i)   d v_m / d u_j        = h_{jm} v_{j'}
      (ii)  d h_{ij'}/d u_i + d h_{ji'}/d u_j
               + sum_{l not in {i, j}} h_{li'} h_{lj'}
               + sum_r V_{i'}^r V_{j'}^r = 0          (i' != j')
      (iii) d h_{im} / d u_j     = h_{ij'} h_{jm}     (i != j, m != i')
      (iv)  d V_m^r / d u_j      = h_{jm} V_{j'}^r

    The Gauss-type sum in (ii) runs over all other coordinates, including
    those sharing a class with i or j; dropping the same-class terms breaks
    the identity on nets with multiplicities >= 2 (checked numerically on a
    rank-2-fiber transform, residual 7e-2 vs 2e-9).

    Along each axis j one `fd_axis` call per field differentiates v and V
    whole and, of h, the components the equations read along j: h_{im}
    for (iii) and h_{j i'} for (ii).  Each residual is the largest over the
    equation's components and the nodes `_fd_nodes` checks.  A masked node
    may hold any value, so no residual reads one.

    The check fails outright (`ResidualReport.failure`) when no node is
    checked, with every residual NaN, when v, h or V is not finite at a
    valid node, or when a residual is not finite.
    """
    g = t.grid
    D, k = g.ndim, t.n_classes
    cls = t.class_map.classes
    valid = t.valid()
    nodes = _fd_nodes(g, valid)
    frac = 1.0 - valid.mean()
    if not nodes.any():
        return ResidualReport(residuals=dict.fromkeys(("I.i", "I.ii", "I.iii", "I.iv"), float("nan")),
                              tol=tol, masked_fraction=float(frac),
                              failure="no valid node" if not valid.any() else
                              "no valid node has its fd stencils inside the valid set")
    bad = [name for name, f in (("v", t.v), ("h", t.h), ("V", t.V))
           if not np.isfinite(f).all() and not np.isfinite(f[..., valid]).all()]
    failure = f"{', '.join(bad)} not finite at valid nodes" if bad else ""

    res = dict.fromkeys(("I.i", "I.ii", "I.iii", "I.iv"), 0.0)
    gauss = {}                # (ii)'s derivatives d_j h_{j m} by (j, m)
    for j in range(D):
        hj = g.spacings[j]
        res["I.i"] = _worst(fd_axis(t.v, hj, 1 + j, 1) - t.h[j] * t.v[cls[j]], nodes, res["I.i"])
        dV = fd_axis(t.V, hj, 2 + j, 1) - t.h[j][:, None] * t.V[cls[j]]
        res["I.iv"] = _worst(dV, nodes, res["I.iv"])
        # h along j: (iii)'s h_{im}, m != i', a block of rows per i != j,
        # then (ii)'s h_{jm} for the classes m of the other coordinates
        blocks = [(i, [m for m in range(k) if m != cls[i]]) for i in range(D) if i != j]
        own = sorted({cls[i] for i in range(D) if cls[i] != cls[j]})
        rows = np.array([(i, m) for i, ms in blocks for m in ms] + [(j, m) for m in own], dtype=int)
        if not len(rows):
            continue
        dh = fd_axis(t.h[rows[:, 0], rows[:, 1]], hj, 1 + j, 1)
        at = 0
        for i, ms in blocks:
            res["I.iii"] = _worst(dh[at : at + len(ms)] - t.h[i, cls[j]] * t.h[j, ms], nodes, res["I.iii"])
            at += len(ms)
        gauss.update(zip(((j, m) for m in own), dh[at:].copy()))
    for i in range(D):
        for j in range(i + 1, D):
            if cls[i] == cls[j]:
                continue
            term = gauss[i, cls[j]] + gauss[j, cls[i]]
            for l in range(D):
                if l in (i, j):
                    continue
                term = term + t.h[l, cls[i]] * t.h[l, cls[j]]
            term = term + (t.V[cls[i]] * t.V[cls[j]]).sum(axis=0)
            res["I.ii"] = _worst(term, nodes, res["I.ii"])
    if not failure and not np.isfinite(list(res.values())).all():
        failure = "a residual is not finite"
    return ResidualReport(residuals=res, tol=tol, masked_fraction=float(frac), failure=failure)


@np.errstate(divide="ignore", invalid="ignore")     # masked nodes may hold v = 0
def principal_normals_from_triple(t: Triple, s: ImmersionSample) -> PrincipalData:
    """Principal normals eta_m = v_m^{-1} sum_r V_m^r xi_r per class; ZeroLame
    unless every |v| at the triple's valid nodes is finite and >= _ZERO_LAME."""
    if s.triple is not None and s.triple is not t:
        if s.triple.grid.shape != t.grid.shape:
            raise GridMismatch("triple and sample grids differ")
    if s.normals is None:
        raise ValueError("sample carries no normal frame")
    if s.grid.shape != t.grid.shape:
        raise GridMismatch("triple and sample grids differ")
    k = t.n_classes
    valid = t.valid()
    vmin = np.abs(t.v[:, valid]).min() if valid.any() else float("nan")
    if not vmin >= _ZERO_LAME:
        raise ZeroLame(f"some Lame coefficient vanishes (min |v| = {vmin:.2e})")
    eta = np.zeros((k,) + t.grid.shape + (s.ambient_dim,))
    for m in range(k):
        coeff = t.V[m] / t.v[m]  # (R, *grid)
        for r in range(t.n_normals):
            eta[m] += coeff[r][..., None] * s.normals[r]
    return PrincipalData(eta=eta, multiplicities=t.class_map.multiplicities, mask=t.mask)


@np.errstate(invalid="ignore", over="ignore")      # masked nodes may hold infinities
def attach_subbundle(s: ImmersionSample, indices: Sequence[int]) -> ParallelNormalSubbundle:
    """Select parallel frame vectors spanning a flat normal subbundle.

    The parallelism residual is max over axes i, selected r and other frame
    indices t of |<d xi_r / du_i, xi_t>| / max |v_i|, both read at the nodes
    `_fd_nodes` checks; a residual above _PARALLEL_TOL, or not finite,
    raises NotParallel.
    """
    if s.normals is None:
        raise ValueError("sample carries no normal frame")
    indices = tuple(int(i) for i in indices)
    for r in indices:
        if not 0 <= r < s.n_normals:
            raise ValueError(f"frame index {r} out of range")
    nodes = _fd_nodes(s.grid, s.valid())
    worst = 0.0
    for r in indices:
        for i in range(s.grid.ndim):
            d = fd_axis(s.normals[r], s.grid.spacings[i], i, 1)
            scale = np.maximum(_worst(s.lame[i], nodes), 1e-30) if s.lame is not None else 1.0
            for tix in range(s.n_normals):
                if tix == r:
                    continue
                worst = _worst((d * s.normals[tix]).sum(-1) / scale, nodes, worst)
    if not worst <= _PARALLEL_TOL:
        raise NotParallel(f"normal-connection residual {worst:.3e} exceeds tol {_PARALLEL_TOL:g}")
    return ParallelNormalSubbundle(indices=indices, residual=worst)
