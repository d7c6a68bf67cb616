"""Conformal/parallel transformation catalog and the cylinder-type constructors.

The catalog acts on holonomic samples (positions, frames, triple) in closed
form; solution data is pushed forward alongside so transform-then-solve and
solve-then-transform commute.  The sign conventions follow net.py; the
pushforward of the tensor data B under inversion is

    B_m  <-  B_m + 2 v_m (phi - <F, f>) / |f|^2,

obtained by differentiating F^i = F - 2(<F,f> - phi) f / |f|^2 along the
coordinate lines.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AxisIncidence,
    DegenerateOffset,
    DimensionMismatch,
    FocalDegeneracy,
    NotOnQuadric,
    ThroughOrigin,
    UnsupportedGrid,
)
from .integrable import RibaucourSolution
from .net import ClassMap, ImmersionSample, ParallelNormalSubbundle, Triple
from .numerics import TensorGrid, _coord_axis, _lift
from .ribaucour import GeneralW

__all__ = [
    "Translate",
    "Orthogonal",
    "Homothety",
    "Inversion",
    "ParallelTranslate",
    "apply_ltransform",
    "apply_points",
    "pushforward_w",
    "pushforward_ltrivial",
    "LTrivialSpec",
    "detect_ltrivial",
    "epsilon_of",
    "EpsilonResult",
    "generalized_cylinder",
    "generalized_tube",
    "generalized_rotation",
    "StereographicMap",
    "stereographic_points",
    "umbilic_normal_form",
    "random_catalog_transform",
]

_ORTHO_TOL = 1e-12         # largest entry of O O^T - I of an orthogonal matrix
_CENTER_TOL = 1e-12        # smallest |x|^2 (model form) of a point mapped by an inversion
_DEGENERATE_TOL = 1e-9     # smallest |f|^2 and |v - sum c_r V^r| of a transformed sample
_EPS_BAND = 1e-9           # relative half-width of the ambiguous discriminant band
_LTRIVIAL_TOL = 1e-8       # relative F-fit and c-constancy residuals of L-trivial data
# smallest sigma_min / sigma_max of the L-trivial design matrix with unit-norm
# columns on a patch where the decomposition is unique; non-unique patches
# read about 1e-15 and unique ones 1e-5 or more.  It lies above the 1e-8 Gram
# tolerance of integrated frames, which perturbs a null vector of the system
# built on them by about that much.
_UNIQUE_GAP = 1e-7
_QUADRIC_TOL = 1e-8        # largest defect of a base point on the eps-quadric
_AXIS_TOL = 1e-9           # |<g, e>| of a node masked as incident to the rotation axis


# ---------------------------------------------------------------------------
# the catalog


@dataclass(frozen=True)
class Translate:
    u: np.ndarray

    def __init__(self, u):
        object.__setattr__(self, "u", np.asarray(u, dtype=float))


@dataclass(frozen=True)
class Orthogonal:
    O: np.ndarray

    def __init__(self, O):
        O = np.asarray(O, dtype=float)
        if np.abs(O @ O.T - np.eye(O.shape[0])).max() > _ORTHO_TOL:
            raise ValueError("matrix is not orthogonal")
        object.__setattr__(self, "O", O)


@dataclass(frozen=True)
class Homothety:
    k: float

    def __init__(self, k):
        if k == 0:
            raise ValueError("homothety ratio must be nonzero")
        object.__setattr__(self, "k", float(k))


@dataclass(frozen=True)
class Inversion:
    """Inversion about the origin with unit radius: f -> f / |f|^2."""


@dataclass(frozen=True)
class ParallelTranslate:
    """Translation by the parallel normal field xi = sum_r c_r xi_r."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", np.asarray(coeffs, dtype=float))


def _p_inv(f: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The inversion frame map P_i Z = Z - 2 <f, Z> f / |f|^2."""
    Q = (f**2).sum(-1)
    return Z - 2.0 * ((f * Z).sum(-1) / Q)[..., None] * f


def _check_size(T, N: int) -> None:
    """A translation vector or orthogonal matrix must fit the ambient R^N."""
    if isinstance(T, Translate) and T.u.shape != (N,):
        raise DimensionMismatch(f"translation vector of shape {T.u.shape} in R^{N}")
    if isinstance(T, Orthogonal) and T.O.shape != (N, N):
        raise DimensionMismatch(f"orthogonal matrix of shape {T.O.shape} in R^{N}")


def apply_points(T, positions: np.ndarray) -> np.ndarray:
    """Pointwise action of a catalog transform on a position array.

    ParallelTranslate moves points along the sample's normal frame, so it
    acts on samples (`apply_ltransform`) only.
    """
    _check_size(T, positions.shape[-1])
    if isinstance(T, Translate):
        return positions + T.u
    if isinstance(T, Orthogonal):
        return positions @ T.O.T
    if isinstance(T, Homothety):
        return T.k * positions
    if isinstance(T, Inversion):
        Q = (positions**2).sum(-1)
        if Q.min() < _CENTER_TOL:
            raise ThroughOrigin("a node passes through the inversion center")
        return positions / Q[..., None]
    if isinstance(T, ParallelTranslate):
        raise ValueError("ParallelTranslate on raw points needs the normal frame of a sample")
    raise TypeError(f"unknown transform {T!r}")


def apply_ltransform(s: ImmersionSample, T) -> ImmersionSample:
    """Catalog transform of a holonomic sample with frames and triple.

    Closed forms:  translations/orthogonal maps act trivially; homotheties
    scale v; the inversion maps frames by P_i, v by v/|f|^2 and V by
    V + 2 v <f, xi_r> / |f|^2 (on a sample without a triple, lame by
    lame/|f|^2 and sff by |f|^2 sff + 2 <f, xi_r>); parallel translation
    shifts v by -sum c_r V^r and leaves h, V unchanged.
    """
    _check_size(T, s.ambient_dim)
    t = s.triple
    pos = s.positions
    if isinstance(T, Translate):
        return replace_sample(s, positions=pos + T.u)
    if isinstance(T, Orthogonal):
        O = T.O
        return replace_sample(
            s,
            positions=pos @ O.T,
            tangents=None if s.tangents is None else s.tangents @ O.T,
            normals=None if s.normals is None else s.normals @ O.T,
        )
    if isinstance(T, Homothety):
        k = T.k
        newt = None
        if t is not None:
            newt = Triple(t.grid, t.class_map, k * t.v, t.h.copy(), t.V.copy(), mask=t.mask)
        return replace_sample(
            s,
            positions=k * pos,
            lame=None if s.lame is None else k * s.lame,
            sff=None if s.sff is None else s.sff / k,
            triple=newt,
        )
    if isinstance(T, Inversion):
        Q = (pos**2).sum(-1)
        if Q.min() < _DEGENERATE_TOL:
            raise ThroughOrigin("sample passes through the inversion center")
        newpos = pos / Q[..., None]
        tangents = None if s.tangents is None else _p_inv(pos, s.tangents)
        normals = None if s.normals is None else _p_inv(pos, s.normals)
        if t is None:
            sff = s.sff
            if sff is not None:
                if s.normals is None or sff.shape[1] != s.n_normals:
                    raise DimensionMismatch("inverting sff needs one normal per sff column")
                # V/v of the triple branch: |f|^2 sff + 2 <f, xi_r>
                sff = Q * sff + 2.0 * (pos * s.normals).sum(-1)
            return replace_sample(s, positions=newpos, tangents=tangents, normals=normals,
                                  lame=None if s.lame is None else s.lame / Q, sff=sff)
        V = t.V + 2.0 * t.v[:, None] * (pos * s.normals).sum(-1) / Q
        h = t.h - 2.0 * t.v * (pos * s.tangents).sum(-1)[:, None] / Q
        return replace_sample(s, positions=newpos, tangents=tangents, normals=normals,
                              triple=Triple(t.grid, t.class_map, t.v / Q, h, V, mask=t.mask))
    if isinstance(T, ParallelTranslate):
        if s.normals is None or t is None:
            raise ValueError("parallel translation needs a sample with normal frame and triple")
        c = T.coeffs
        if c.shape != (s.n_normals,):
            raise DimensionMismatch("need one coefficient per frame vector")
        xi = np.einsum("r,r...k->...k", c, s.normals)
        v = t.v - np.einsum("r,mr...->m...", c, t.V)
        if np.abs(v).min() < _DEGENERATE_TOL:
            raise DegenerateOffset("I - A_xi degenerates on the patch")
        return replace_sample(s, positions=pos + xi,
                              triple=Triple(t.grid, t.class_map, v, t.h.copy(), t.V.copy(), mask=t.mask))
    raise TypeError(f"unknown transform {T!r}")


def replace_sample(s: ImmersionSample, **kw) -> ImmersionSample:
    """s with the fields given and not None replaced.  A new triple drops
    s's lame and sff: unless given, the new sample takes them from it."""
    data = dict(grid=s.grid, positions=s.positions, tangents=s.tangents, normals=s.normals,
                triple=s.triple, mask=s.mask)
    if kw.get("triple") is None:
        data.update(lame=s.lame, sff=s.sff)
    data.update({k: v for k, v in kw.items() if v is not None})
    return ImmersionSample(**data)


def pushforward_w(w, T, s: ImmersionSample):
    """Solution data on T(sample) such that transform and solve commute.

    Rules (phi, gamma, beta, and the tensor data):
      translation/orthogonal: unchanged;
      homothety k: phi -> k phi (B unchanged);
      inversion: phi -> phi/|f|^2, gamma_j -= 2 phi <f, X_j>/|f|^2,
                 beta_r -= 2 phi <f, xi_r>/|f|^2,
                 B_m += 2 v_m (phi - <F, f>)/|f|^2;
      parallel translation by xi: phi += <F, xi> (rest unchanged).
    """
    dupin = isinstance(w, RibaucourSolution)
    t = s.triple
    if isinstance(T, (Translate, Orthogonal)):
        return w
    if isinstance(T, Homothety):
        if dupin:
            return replace(w, phi=T.k * w.phi)
        return GeneralW(phi=T.k * w.phi, gamma=w.gamma.copy(), beta=w.beta.copy(),
                        rho=w.rho / T.k)
    if isinstance(T, Inversion):
        pos = s.positions
        Q = (pos**2).sum(-1)
        fX = (pos * s.tangents).sum(-1)
        fxi = (pos * s.normals).sum(-1)
        Ff = (w.gamma * fX).sum(0) + (w.beta * fxi).sum(0)
        phi = w.phi / Q
        gamma = w.gamma - 2.0 * w.phi * fX / Q
        beta = w.beta - 2.0 * w.phi * fxi / Q
        if dupin:
            B = w.B + 2.0 * t.v * ((w.phi - Ff) / Q)
            return replace(w, phi=phi, gamma=gamma, beta=beta, B=B)
        rho = Q * w.rho - 2.0 * (Ff - w.phi)
        return GeneralW(phi=phi, gamma=gamma, beta=beta, rho=rho)
    if isinstance(T, ParallelTranslate):
        c = T.coeffs
        Fxi = (w.beta * c.reshape((-1,) + (1,) * s.grid.ndim)).sum(0)
        phi = w.phi + Fxi
        if dupin:
            return replace(w, phi=phi)
        cls = list(t.class_map.classes)
        kap = np.einsum("r,ir...->i...", c, t.V[cls]) / t.v[cls]
        return GeneralW(phi=phi, gamma=w.gamma.copy(), beta=w.beta.copy(),
                        rho=w.rho / (1.0 - kap))
    raise TypeError(f"unknown transform {T!r}")


# ---------------------------------------------------------------------------
# L-trivial data


@dataclass(frozen=True)
class LTrivialSpec:
    """The (a, v0, delta, c) data of an L-trivial solution.

    delta is stored by its constant coefficients against the parallel frame.
    """

    a: float
    v0: np.ndarray
    delta: np.ndarray
    c: float
    exact: bool = False

    def discriminant(self) -> float:
        return self.a * self.c - float(self.v0 @ self.v0) + float(self.delta @ self.delta)


@dataclass(frozen=True)
class EpsilonResult:
    value: int | None
    ambiguous: bool
    discriminant: float


def epsilon_of(spec: LTrivialSpec) -> EpsilonResult:
    """Class sign epsilon = sign(a c - |v0|^2 + |delta|^2).

    Values inside the band of relative half-width _EPS_BAND are AMBIGUOUS
    unless the data is exact (constructed, not fitted) and the discriminant
    is exactly zero.
    """
    d = spec.discriminant()
    scale = max(abs(spec.a * spec.c), float(spec.v0 @ spec.v0), float(spec.delta @ spec.delta), 1e-300)
    if d == 0.0 and spec.exact:
        return EpsilonResult(0, False, d)
    if abs(d) < _EPS_BAND * scale:
        return EpsilonResult(None, True, d)
    return EpsilonResult(1 if d > 0 else -1, False, d)


def pushforward_ltrivial(spec: LTrivialSpec, T) -> LTrivialSpec:
    """Update (a, v0, delta, c) under a catalog transform.

    Translation: (a, v0 - a u, delta, c - 2<u, v0> + a |u|^2);
    orthogonal: v0 rotates; homothety k: (a/k, v0, delta, c k);
    inversion: (c, v0, delta, a); parallel translation by xi = sum c_r xi_r:
    (a, v0, delta - a c_r, c + 2 <delta, xi> - a |xi|^2).
    """
    a, v0, d, c = spec.a, spec.v0, spec.delta, spec.c
    if isinstance(T, Translate):
        u = T.u
        return LTrivialSpec(a, v0 - a * u, d.copy(), c - 2.0 * float(u @ v0) + a * float(u @ u),
                            exact=spec.exact)
    if isinstance(T, Orthogonal):
        return LTrivialSpec(a, T.O @ v0, d.copy(), c, exact=spec.exact)
    if isinstance(T, Homothety):
        return LTrivialSpec(a / T.k, v0.copy(), d.copy(), c * T.k, exact=spec.exact)
    if isinstance(T, Inversion):
        return LTrivialSpec(c, v0.copy(), d.copy(), a, exact=spec.exact)
    if isinstance(T, ParallelTranslate):
        cc = T.coeffs
        return LTrivialSpec(a, v0.copy(), d - a * cc,
                            c + 2.0 * float(d @ cc) - a * float(cc @ cc), exact=spec.exact)
    raise TypeError(f"unknown transform {T!r}")


def detect_ltrivial(s: ImmersionSample, w):
    """Least-squares detection of L-trivial data F = a f + v0 + delta.

    Returns (LTrivialSpec | None, report).  The fit runs over valid nodes
    with delta constrained to the parallel frame span; acceptance needs both
    the F-fit and the constancy of 2 phi - a |f|^2 - 2 <f, v0> below
    _LTRIVIAL_TOL (relative).  The decomposition is unique exactly when the
    fit's design matrix has full column rank: a null vector (a, v, d) puts f
    on the hypersphere or affine hyperplane a f + v + sum_r d_r xi_r = 0.
    report["substantial"] states it, from the singular values of the design
    matrix with unit-norm columns against _UNIQUE_GAP; it is never raised.
    """
    pos = s.positions
    N = s.ambient_dim
    R = s.n_normals
    valid = s.valid()
    f = pos[valid]                                  # (m, N)
    F = (np.einsum("i...,i...k->...k", w.gamma, s.tangents)
         + np.einsum("r...,r...k->...k", w.beta, s.normals))[valid]
    m = f.shape[0]
    A = np.zeros((m * N, 1 + N + R))
    A[:, 0] = f.reshape(-1)
    A[:, 1:1 + N] = np.tile(np.eye(N), (m, 1))
    A[:, 1 + N:] = s.normals[:, valid].reshape(R, m * N).T
    b = F.reshape(-1)
    coef, *_ = np.linalg.lstsq(A, b, rcond=None)
    sv = np.linalg.svd(A / np.linalg.norm(A, axis=0), compute_uv=False)
    # fewer equations than unknowns (one valid node) leave a null vector too
    substantial = bool(len(sv) == A.shape[1] and sv[-1] > _UNIQUE_GAP * sv[0])
    a = float(coef[0])
    v0 = coef[1:1 + N]
    d = coef[1 + N:]
    fit_res = np.abs(A @ coef - b).max() / max(np.abs(b).max(), 1e-30)
    cvals = 2.0 * w.phi[valid] - a * (f**2).sum(-1) - 2.0 * (f * v0).sum(-1)
    c = float(cvals.mean())
    scale = max(np.abs(w.phi).max(), 1.0)
    c_res = np.abs(cvals - c).max() / scale
    report = {"fit_residual": float(fit_res), "c_residual": float(c_res),
              "substantial": substantial}
    if not substantial:
        report["note"] = "patch not conformally substantial: decomposition not unique"
    if fit_res < _LTRIVIAL_TOL and c_res < _LTRIVIAL_TOL:
        return LTrivialSpec(a, v0, d, c), report
    return None, report


# ---------------------------------------------------------------------------
# cylinder-type constructors


def _fiber_sections(base: ImmersionSample, indices: tuple, fiber: TensorGrid | list) -> tuple:
    """The product grid of base and fiber, the fiber coefficient axes shaped
    to broadcast over it, and the section sum gamma = sum_l c_l xi_{n_l}
    (*grid, N).  fiber is a TensorGrid over the coefficients or a list of
    per-axis coefficient arrays, one axis per frame index."""
    if isinstance(fiber, TensorGrid):
        axes = [fiber.axis_coords(l) for l in range(fiber.ndim)]
    else:
        axes = [np.asarray(c, dtype=float) for c in fiber]
        fiber = TensorGrid(tuple(len(c) for c in axes), (1.0,) * len(axes))
    if len(axes) != len(indices):
        raise DimensionMismatch("fiber rank must match subbundle rank")
    grid, Db = base.grid.product(fiber), base.grid.ndim
    coeffs = [_coord_axis(c, grid.ndim, Db + l) for l, c in enumerate(axes)]
    normals = _lift(base.normals, Db, len(axes), 1)
    gam = sum((c[..., None] * normals[r] for c, r in zip(coeffs, indices)),
              np.zeros(grid.shape + (base.ambient_dim,)))
    return grid, coeffs, gam


def generalized_cylinder(h: ImmersionSample, sub: ParallelNormalSubbundle, eps: int,
                         fiber: TensorGrid | list) -> ImmersionSample:
    """Generalized cylinder over h determined by the parallel subbundle.

    eps = 0: gamma -> h + gamma (flat exponential map); full holonomic data.
    eps = +-1: rational fiber chart of the model-quadric cylinder,
        gamma -> h - (1 + eps^2)(eps h + gamma) / (eps + |gamma|^2),
    positions only (the sample lives on the quadric of R^{N}).
    fiber is a TensorGrid over the subbundle coefficients, or a list of
    per-axis coefficient arrays (monotonicity not required).
    """
    if h.normals is None:
        raise ValueError("base sample needs a parallel normal frame")
    s_rank, Db, N = sub.rank, h.grid.ndim, h.ambient_dim
    grid, coeffs, gam = _fiber_sections(h, sub.indices, fiber)
    shape = grid.shape
    pos_b = _lift(h.positions, Db, s_rank)

    if eps == 0:
        positions = pos_b + gam
        t = h.triple
        if t is None or h.tangents is None:
            return ImmersionSample(grid, positions)
        k, cls = t.n_classes, list(t.class_map.classes)
        out_r = [r for r in range(t.n_normals) if r not in sub.indices]
        hb, Vb = _lift(t.h, Db, s_rank, 2), _lift(t.V, Db, s_rank, 2)
        # the shifted v_m - sum_l c_l V_m^{n_l} of every class, and its
        # derivative h_{jm} (v_{j'} - sum_l c_l V_{j'}^{n_l}) along base axis j
        v = np.empty((k + 1,) + shape)
        v[:k] = _lift(t.v, Db, s_rank, 1) + np.zeros(shape)
        dv = hb * _lift(t.v[cls], Db, s_rank, 1)[:, None]
        for c, r in zip(coeffs, sub.indices):
            v[:k] -= c * Vb[:, r]
            dv = dv - c * (hb * Vb[cls, r][:, None])
        v[k] = 1.0
        # rotation coefficients: d_j v_m = h_{jm} v_{j'} still holds with the
        # shifted v on base axes; fiber rows are -V_m^{n_l}
        hh = np.zeros((grid.ndim, k + 1) + shape)
        hh[:Db, :k] = dv / v[cls][:, None]
        hh[Db:, :k] = -Vb[:, list(sub.indices)].swapaxes(0, 1)
        Vn = np.zeros((k + 1, len(out_r)) + shape)
        Vn[:k] = Vb[:, out_r] + 0.0
        newt = Triple(grid, ClassMap(tuple(cls) + (k,) * s_rank), v, hh, Vn)
        frames = np.concatenate([h.tangents, h.normals[list(sub.indices)]])
        tangents = np.broadcast_to(_lift(frames, Db, s_rank, 1), (len(frames),) + shape + (N,)).copy()
        normals = np.broadcast_to(_lift(h.normals[out_r], Db, s_rank, 1), (len(out_r),) + shape + (N,)).copy()
        return ImmersionSample(grid, positions, tangents=tangents, normals=normals, triple=newt)

    if eps not in (1, -1):
        raise ValueError("eps must be -1, 0 or +1")
    Qh = _quadric_form(h.positions, eps)
    if np.abs(Qh - eps).max() > _QUADRIC_TOL:
        raise NotOnQuadric(f"base does not lie on the eps={eps} quadric "
                           f"(max defect {np.abs(Qh - eps).max():.2e})")
    Qg = (gam**2).sum(-1)
    denom = eps + Qg
    with np.errstate(divide="ignore", invalid="ignore"):       # masked below
        positions = pos_b - (1 + eps * eps) * ((eps * pos_b + gam) / denom[..., None])
    mask = np.abs(denom) > 1e-10
    return ImmersionSample(grid, positions, mask=None if mask.all() else mask)


def _quadric_form(x: np.ndarray, eps: int) -> np.ndarray:
    """<x, x> in the model metric: Lorentzian first coordinate when eps=-1."""
    Q = (x**2).sum(-1)
    if eps == -1:
        Q = Q - 2.0 * x[..., 0] ** 2
    return Q


def generalized_tube(g: ImmersionSample, sub: ParallelNormalSubbundle, a: float,
                     n_angle: int = 21, angle_range=(0.0, 2.0 * np.pi)) -> ImmersionSample:
    """Tube of radius a over g along the unit circle of a rank-2 subbundle.

    psi(u, theta) = g(u) + a (cos theta xi_1 + sin theta xi_2); carries the
    full holonomic data.  Nodes inside the focal radius are masked.
    """
    if a == 0:
        raise ValueError("tube radius must be nonzero")
    if sub.rank != 2:
        raise UnsupportedGrid("tube fibers are discretized for rank-2 subbundles")
    t = g.triple
    if t is None or g.tangents is None:
        raise ValueError("tube base needs full holonomic data")
    r1, r2 = sub.indices
    fgrid = TensorGrid((n_angle,), ((angle_range[1] - angle_range[0]) / (n_angle - 1),),
                       (angle_range[0],))
    th = fgrid.axis_coords(0)        # the last grid axis: it broadcasts as is
    grid = g.grid.product(fgrid)
    shape = grid.shape
    N = g.ambient_dim
    Db = g.grid.ndim
    k = t.n_classes
    cls = list(t.class_map.classes)
    out_r = [r for r in range(t.n_normals) if r not in sub.indices]
    hb, vb, Vb = _lift(t.h, Db, 1, 2), _lift(t.v, Db, 1, 1), _lift(t.V, Db, 1, 2)
    xi = _lift(g.normals, Db, 1, 1)

    sth, cth = np.sin(th), np.cos(th)
    nu_dir = cth[..., None] * xi[r1] + sth[..., None] * xi[r2]
    tdir = -sth[..., None] * xi[r1] + cth[..., None] * xi[r2]
    positions = _lift(g.positions, Db, 1) + a * nu_dir

    W = cth * Vb[:, r1] + sth * Vb[:, r2]
    v = np.empty((k + 1,) + shape)
    v[:k] = vb - a * W
    v[k] = a
    focal = np.abs(v[:k]).min(axis=0) > 1e-9
    Vn = np.zeros((k + 1, 1 + len(out_r)) + shape)
    Vn[:k, 0] = W
    Vn[:k, 1:] = Vb[:, out_r] + 0.0
    Vn[k, 0] = -1.0
    hh = np.zeros((grid.ndim, k + 1) + shape)
    with np.errstate(invalid="ignore", divide="ignore"):
        dv = hb * vb[cls][:, None] - a * (cth * (hb * Vb[cls, r1][:, None])
                                          + sth * (hb * Vb[cls, r2][:, None]))
        hh[:Db, :k] = dv / v[cls][:, None]
        hh[Db, :k] = (a * (sth * Vb[:, r1] - cth * Vb[:, r2])) / v[k]
        cmap = ClassMap(tuple(cls) + (k,))
        newt = Triple(grid, cmap, v, hh, Vn, mask=None if focal.all() else focal)
        tangents = np.concatenate([np.broadcast_to(_lift(g.tangents, Db, 1, 1), (Db,) + shape + (N,)),
                                   tdir[None]])
        normals = np.concatenate([nu_dir[None], np.broadcast_to(xi[out_r], (len(out_r),) + shape + (N,))])
    out = ImmersionSample(grid, positions, tangents=tangents, normals=normals, triple=newt,
                          mask=None if focal.all() else focal)
    if not focal.all() and focal.mean() < 0.5:
        raise FocalDegeneracy("tube radius reaches the focal set on most of the patch")
    return out


def generalized_rotation(g: ImmersionSample, sub: ParallelNormalSubbundle, e,
                         fiber: TensorGrid | list) -> ImmersionSample:
    """Rotation-type submanifold psi = g - 2 <g, e> (e + gamma) / |e + gamma|^2.

    gamma ranges over the subbundle box; positions only.
    """
    e = np.asarray(e, dtype=float)
    if abs(np.linalg.norm(e) - 1.0) > 1e-12:
        raise ValueError("axis vector e must be unit")
    if g.normals is None:
        raise ValueError("base sample needs a parallel normal frame")
    grid, _, gam = _fiber_sections(g, sub.indices, fiber)
    shape = grid.shape
    pos_b = _lift(g.positions, g.grid.ndim, sub.rank)
    ge = (pos_b * e).sum(-1)
    mask = np.broadcast_to(np.abs(ge) > _AXIS_TOL, shape).copy()
    if not mask.any():
        raise AxisIncidence("the whole patch is incident to the rotation axis")
    den = ((e + gam) ** 2).sum(-1)
    positions = pos_b - 2.0 * ge[..., None] * (e + gam) / den[..., None]
    positions = np.broadcast_to(positions, shape + (g.ambient_dim,)).copy()
    return ImmersionSample(grid, positions, mask=None if mask.all() else mask)


# ---------------------------------------------------------------------------
# stereographic map


@dataclass(frozen=True)
class StereographicMap:
    """S = T_{eps e0} . H_{1+eps^2} . i . T_{-eps^2 e0} from R^N into the
    model quadric of R^{N+1} (Lorentzian first coordinate for eps = -1);
    the inversion uses the model quadratic form.  eps = 0 degenerates to the
    plain inversion of R^N."""

    eps: int

    def __post_init__(self):
        if self.eps not in (-1, 0, 1):
            raise ValueError("eps must be -1, 0 or +1")


def stereographic_points(x: np.ndarray, m: StereographicMap, direction: str = "fwd") -> np.ndarray:
    """Apply the stereographic composition to a position array."""
    eps = m.eps
    if eps == 0:
        return apply_points(Inversion(), x)
    if direction == "fwd":
        z = np.zeros(x.shape[:-1] + (x.shape[-1] + 1,))
        z[..., 1:] = x
        z[..., 0] -= eps * eps
        Q = _quadric_form(z, eps)
        if np.abs(Q).min() < _CENTER_TOL:
            raise ThroughOrigin("node on the inversion cone")
        out = (1 + eps * eps) * z / Q[..., None]
        out[..., 0] += eps
        return out
    if direction == "inv":
        z = x.copy()
        z[..., 0] -= eps
        z = z / (1 + eps * eps)
        Q = _quadric_form(z, eps)
        if np.abs(Q).min() < _CENTER_TOL:
            raise ThroughOrigin("node on the inversion cone")
        z = z / Q[..., None]
        z[..., 0] += eps * eps
        if np.abs(z[..., 0]).max() > 1e-8:
            raise ValueError("inverse stereographic image does not return to the slice")
        return z[..., 1:]
    raise ValueError("direction must be 'fwd' or 'inv'")


# ---------------------------------------------------------------------------
# totally umbilical conullity normal forms


def umbilic_normal_form(kind: str, g: ImmersionSample, fiber: TensorGrid,
                    rho: np.ndarray | None = None) -> ImmersionSample:
    """Seed constructors for the three umbilical-conullity normal forms.

    (a) product   f = (g, id): fiber box appended as flat coordinates;
    (b) cone      f = (t g, id_{k-1}): first fiber axis scales a spherical g;
    (c) warped    f = (g, rho z): round-sphere factor of radius rho(u),
        z the unit circle chart (fiber rank 1 discretizes S^1 angles).
    """
    Nb = g.ambient_dim
    grid = g.grid.product(fiber)
    pos_b = _lift(g.positions, g.grid.ndim, fiber.ndim)
    box = np.stack(fiber.meshgrid(), -1)       # fiber coordinates; broadcasts over the base axes
    if kind == "a":
        positions = np.zeros(grid.shape + (Nb + fiber.ndim,))
        positions[..., :Nb] = pos_b
        positions[..., Nb:] = box
        return ImmersionSample(grid, positions)
    if kind == "b":
        nrm = np.linalg.norm(g.positions, axis=-1)
        if np.abs(nrm - 1.0).max() > 1e-9:
            raise DimensionMismatch("cone base must be spherical (|g| = 1)")
        positions = np.zeros(grid.shape + (Nb + fiber.ndim - 1,))
        positions[..., :Nb] = box[..., :1] * pos_b
        positions[..., Nb:] = box[..., 1:]
        return ImmersionSample(grid, positions)
    if kind == "c":
        if fiber.ndim != 1:
            raise UnsupportedGrid("warped normal form discretizes a circle fiber")
        if rho is None:
            rho = np.ones(g.grid.shape)
        rho = np.asarray(rho, dtype=float)
        if rho.min() <= 0:
            raise ValueError("warp function must be positive")
        th = fiber.axis_coords(0)              # the last grid axis: it broadcasts as is
        rr = rho.reshape(g.grid.shape + (1,))
        positions = np.zeros(grid.shape + (Nb + 2,))
        positions[..., :Nb] = pos_b
        positions[..., Nb] = rr * np.cos(th)
        positions[..., Nb + 1] = rr * np.sin(th)
        return ImmersionSample(grid, positions)
    raise ValueError("kind must be 'a', 'b' or 'c'")


def random_catalog_transform(rng: np.random.Generator, N: int, kinds=("T", "O", "H", "I")):
    """A random catalog transform for invariance tests (inversion kept away
    from the sample by composing with a translation beforehand is the
    caller's job)."""
    kind = kinds[rng.integers(len(kinds))]
    if kind == "T":
        return Translate(rng.normal(size=N))
    if kind == "O":
        A = rng.normal(size=(N, N))
        Qm, _ = np.linalg.qr(A)
        return Orthogonal(Qm)
    if kind == "H":
        k = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        return Homothety(k)
    return Inversion()
