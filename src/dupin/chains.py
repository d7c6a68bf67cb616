"""Normalization chains for L-trivial transform families.

An L-trivial family over a base h is the leaf family

    f_t = h - (a |h|^2 + 2 <h, v0> + c) (a h + v0 + delta + t) / |a h + v0 + delta + t|^2

with t ranging over parallel sections of the chosen subbundle.  The chain
engine rewrites the data (a, v0, delta, c) by logged catalog steps until it
reaches the normal form (1, 0, 0, eps), then hands off to the model-quadric
cylinder (via the stereographic map) and to the Euclidean tube / rotation /
cylinder pictures.  Every step records the commuting-square residual between
the pointwise-mapped family and the family rebuilt from the pushed data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .moebius import (
    Homothety,
    Inversion,
    LTrivialSpec,
    ParallelTranslate,
    Translate,
    apply_ltransform,
    apply_points,
    generalized_cylinder,
    generalized_rotation,
    pushforward_ltrivial,
    stereographic_points,
    StereographicMap,
    _fiber_sections,
    _p_inv,
    _quadric_form,
)
from .net import ImmersionSample, ParallelNormalSubbundle
from .numerics import _lift
from .ribaucour import _reflect

__all__ = ["LTrivialFamily", "normalize_to_form", "quadric_cylinder_residual",
           "euclidean_cylinder_match", "euclidean_rotation_match", "euclidean_tube_match"]

_Q_SEARCH = (0.0, 0.5, 1.0, -0.5, -1.0)   # the coarse grid of rescue offsets q[0]
_ZERO_TOL = 1e-9                          # |v0|, |delta| and |c| below this count as zero


@dataclass
class LTrivialFamily:
    """A leaf family determined by L-trivial data on a framed base sample."""

    sample: ImmersionSample
    spec: LTrivialSpec
    nsub: ParallelNormalSubbundle
    fiber: tuple                    # per-subbundle-axis coefficient arrays

    def __post_init__(self):
        self.fiber = tuple(np.asarray(f, dtype=float) for f in self.fiber)

    @property
    def base_grid(self):
        return self.sample.grid

    @property
    def f(self) -> np.ndarray:
        """The base positions on the product grid."""
        return _lift(self.sample.positions, self.base_grid.ndim, len(self.fiber))

    def _normal_field(self, coeffs: np.ndarray) -> np.ndarray:
        """The parallel normal field sum_r c_r xi_r, lifted to the product grid."""
        xi = _lift(self.sample.normals, self.base_grid.ndim, len(self.fiber), 1)
        return np.einsum("r,r...k->...k", coeffs, xi)

    def t_vectors(self) -> np.ndarray:
        """Parallel-section vectors t(u, y) on the product grid."""
        return _fiber_sections(self.sample, self.nsub.indices, list(self.fiber))[2]

    def F_t(self) -> np.ndarray:
        sp = self.spec
        return sp.a * self.f + sp.v0 + self._normal_field(sp.delta) + self.t_vectors()

    def two_phi(self) -> np.ndarray:
        f, sp = self.f, self.spec
        return sp.a * (f**2).sum(-1) + 2.0 * (f * sp.v0).sum(-1) + sp.c

    def positions(self) -> np.ndarray:
        F = self.F_t()
        return self.f - (self.two_phi() / (F**2).sum(-1))[..., None] * F

    def P_t(self, Z: np.ndarray) -> np.ndarray:
        F = self.F_t()
        return _reflect(F, 1.0 / (F**2).sum(-1), Z)

    def apply(self, T) -> tuple:
        """Catalog step: returns (new family, commuting-square residual)."""
        old_pos = self.positions()
        if isinstance(T, ParallelTranslate):
            xi = np.broadcast_to(self._normal_field(T.coeffs), old_pos.shape)
            mapped = old_pos + self.P_t(xi)
        else:
            mapped = apply_points(T, old_pos)
        new = LTrivialFamily(sample=apply_ltransform(self.sample, T),
                             spec=pushforward_ltrivial(self.spec, T),
                             nsub=self.nsub, fiber=self.fiber)
        res = float(np.abs(mapped - new.positions()).max())
        return new, res

    def rescale(self, lam: float) -> "LTrivialFamily":
        """Projective rescaling of the class data; fibers scale along."""
        sp = self.spec
        return LTrivialFamily(sample=self.sample,
                              spec=LTrivialSpec(lam * sp.a, lam * sp.v0, lam * sp.delta,
                                                lam * sp.c, exact=sp.exact),
                              nsub=self.nsub,
                              fiber=tuple(lam * f for f in self.fiber))


def _immersion_margin(sample: ImmersionSample, delta_coeffs: np.ndarray) -> float:
    """min over classes of |v_m - sum_r d_r V_m^r| (I - A_delta invertibility)."""
    t = sample.triple
    shifted = t.v - np.einsum("r,mr...->m...", delta_coeffs, t.V)
    return float(np.abs(shifted).min())


def normalize_to_form(family: LTrivialFamily):
    """Drive the data to (1, 0, 0, eps) by logged catalog steps.

    Steps: (make a nonzero by translation+inversion if needed) -> homothety
    H_a -> translation T_{v0} -> [conformal C(q) when h' + delta fails to be
    an immersion; q from the coarse grid _Q_SEARCH] -> parallel translation
    by delta -> homothety and projective rescale to |c| = 1 (or c = 0).

    Returns (normal-form family, eps, log).
    """
    log = []
    fam = family

    def step(T, name):
        nonlocal fam
        fam, res = fam.apply(T)
        log.append({"step": name, "params": repr(T), "commuting_residual": res,
                    "spec": (fam.spec.a, fam.spec.v0.tolist(), fam.spec.delta.tolist(), fam.spec.c)})

    if fam.spec.a == 0.0:
        if fam.spec.c == 0.0:
            if np.linalg.norm(fam.spec.v0) < _ZERO_TOL:
                raise ValueError("degenerate data: a = c = 0 and v0 = 0")
            step(Translate(-fam.spec.v0), "make_c_nonzero")
        step(Inversion(), "make_a_nonzero")

    step(Homothety(fam.spec.a), "normalize_a")
    if np.linalg.norm(fam.spec.v0) > 0:
        step(Translate(fam.spec.v0.copy()), "kill_v0")

    # ensure h' + delta immerses before the parallel step
    if np.linalg.norm(fam.spec.delta) > _ZERO_TOL:
        margin = _immersion_margin(fam.sample, fam.spec.delta)
        if margin < 1e-6:
            c1 = fam.spec.c
            found = False
            for qmag in _Q_SEARCH:
                q = np.zeros(fam.sample.ambient_dim)
                q[0] = qmag
                denom = c1 + float(q @ q)
                if abs(denom) < 1e-9:
                    continue
                trial = fam
                for T, name in ((Translate(-q), "conformal_rescue:translate"),
                                (Inversion(), "conformal_rescue:invert"),
                                (Translate(q / denom), "conformal_rescue:translate_back")):
                    trial, _ = trial.apply(T)
                if _immersion_margin(trial.sample, trial.spec.delta / max(trial.spec.a, 1e-30)) > 1e-6:
                    log.append({"step": "conformal_rescue", "params": f"q={qmag}", "commuting_residual": 0.0,
                                "note": "coarse grid search cleared the immersion condition"})
                    fam = trial
                    step(Homothety(fam.spec.a), "normalize_a_again")
                    if np.linalg.norm(fam.spec.v0) > 0:
                        step(Translate(fam.spec.v0.copy()), "kill_v0_again")
                    found = True
                    break
            if not found:
                raise ValueError("no q in the coarse search clears the immersion condition")
        step(ParallelTranslate(fam.spec.delta.copy()), "kill_delta")

    c2 = fam.spec.c
    if abs(c2) > _ZERO_TOL:
        k = 1.0 / np.sqrt(abs(c2))
        step(Homothety(k), "normalize_c")
        fam = fam.rescale(1.0 / fam.spec.a)
        log.append({"step": "projective_rescale", "params": f"lambda={1.0/np.sqrt(abs(c2)):.6g}",
                    "commuting_residual": 0.0})
        eps = int(np.sign(fam.spec.c))
    else:
        fam = fam.rescale(1.0 / fam.spec.a)
        log.append({"step": "projective_rescale", "params": "lambda=1/a", "commuting_residual": 0.0})
        eps = 0
    sp = fam.spec
    assert abs(sp.a - 1.0) < 1e-9 and np.abs(sp.v0).max() < 1e-9 and np.abs(sp.delta).max() < 1e-8
    return fam, eps, log


def quadric_cylinder_residual(fam: LTrivialFamily, eps: int) -> float:
    """Push the normal form through the stereographic map and compare with
    the model-quadric cylinder over S(g) at the pushed parallel sections."""
    m = StereographicMap(eps)
    img = stereographic_points(fam.positions(), m, "fwd")
    g = fam.sample.positions
    D, s_rank = fam.base_grid.ndim, len(fam.fiber)
    t_vec = fam.t_vectors()
    kl = _lift(stereographic_points(g, m, "fwd"), D, s_rank)
    if eps == 0:
        t_hat = _p_inv(fam.f, t_vec)
        target = kl - t_hat / (t_hat**2).sum(-1)[..., None]
        return float(np.abs(img - target).max())
    # embed and shift by the pole
    N = fam.sample.ambient_dim
    ge = np.zeros(g.shape[:-1] + (N + 1,))
    ge[..., 1:] = g
    gt = ge.copy()
    gt[..., 0] -= eps * eps
    te = np.zeros(t_vec.shape[:-1] + (N + 1,))
    te[..., 1:] = t_vec
    gtl = _lift(gt, D, s_rank)
    Qg = _quadric_form(gtl, eps)
    inner = (te * gtl).sum(-1)
    if eps == -1:
        inner = inner - 2.0 * te[..., 0] * gtl[..., 0]
    t_hat = te - 2.0 * (inner / Qg)[..., None] * gtl
    Qt = _quadric_form(t_hat, eps)
    target = kl - (1 + eps * eps) * (eps * kl + t_hat) / (eps + Qt)[..., None]
    return float(np.abs(img - target).max())


def euclidean_cylinder_match(fam: LTrivialFamily) -> dict:
    """eps = 0: the inverted family is the flat cylinder over i(g) along the
    pushed subbundle, at fiber coefficients -1/y."""
    if any(np.abs(f).min() < 1e-9 for f in fam.fiber):
        raise ValueError("fiber coefficients must avoid 0 for the inversion chart")
    inv_base = apply_ltransform(fam.sample, Inversion())
    img = apply_points(Inversion(), fam.positions())
    coeffs = [-1.0 / f for f in fam.fiber]
    cyl = generalized_cylinder(inv_base, fam.nsub, 0, coeffs)
    return {"residual": float(np.abs(img - cyl.positions).max()), "sample": cyl}


def euclidean_rotation_match(fam: LTrivialFamily, e=None) -> dict:
    """eps = -1: T_{-e} . i . T_{e/2} lands on the rotation submanifold
    psi = h - 2 <h, e> (e + gamma)/|e + gamma|^2 over h = i(g - e) + e/2 at
    gamma = t."""
    N = fam.sample.ambient_dim
    if e is None:
        e = np.zeros(N)
        e[0] = 1.0
    e = np.asarray(e, dtype=float)
    log = []
    f1, r1 = fam.apply(Translate(-e))
    f2, r2 = f1.apply(Inversion())
    f3, r3 = f2.apply(Translate(e / 2.0))
    log = [("T_-e", r1), ("i", r2), ("T_e/2", r3)]
    rot = generalized_rotation(f3.sample, fam.nsub, e, [f.copy() for f in f3.fiber])
    res = float(np.abs(f3.positions() - rot.positions).max())
    return {"residual": res, "chain": log, "family": f3, "sample": rot}


def euclidean_tube_match(fam: LTrivialFamily, xi_index: int) -> dict:
    """eps = +1: i . L_{xi'} . i sends the normal form to a tube of radius
    1/2 around k = h - delta/2; the circle fibers are the inversion images of
    the parallel lines delta + t."""
    f1, r1 = fam.apply(Inversion())
    coeffs = np.zeros(f1.sample.n_normals)
    coeffs[xi_index] = 1.0
    margin = _immersion_margin(f1.sample, coeffs)
    if margin < 1e-6:
        raise ValueError("xi' offset degenerates; pick another frame index or run C(q)")
    f2, r2 = f1.apply(ParallelTranslate(coeffs))
    # data is now (1, 0, -xi', 0); invert once more
    f3, r3 = f2.apply(Inversion())
    # family is h - (delta + t)/|delta + t|^2 with |delta| = 1
    sp = f3.spec
    assert abs(sp.a) < 1e-9 and abs(sp.c - 1.0) < 1e-9
    delta_vec = np.einsum("r,r...k->...k", sp.delta, f3.sample.normals)
    D, s_rank = f3.base_grid.ndim, len(f3.fiber)
    center = f3.f - 0.5 * _lift(delta_vec, D, s_rank)
    fampos = f3.positions()
    radial = fampos - center
    rad = np.linalg.norm(radial, axis=-1)
    rad_err = float(np.abs(rad - 0.5).max())
    # fiber frame: delta direction and the pushed subbundle direction
    nu1 = _lift(delta_vec / np.linalg.norm(delta_vec, axis=-1)[..., None], D, s_rank)
    nu2 = _lift(f3.sample.normals[fam.nsub.indices[0]], D, s_rank)
    c1 = (radial * nu1).sum(-1) / rad
    c2 = (radial * nu2).sum(-1) / rad
    theta = np.arctan2(c2, c1)
    base_axes = tuple(range(D))
    theta_spread = float((theta.max(axis=base_axes) - theta.min(axis=base_axes)).max())
    # directly constructed tube: radius 1/2 fibers at the per-leaf mean angle
    theta_bar = theta.mean(axis=base_axes, keepdims=True)
    tube_pos = center + 0.5 * (np.cos(theta_bar)[..., None] * nu1 + np.sin(theta_bar)[..., None] * nu2)
    res = float(np.abs(fampos - tube_pos).max())
    return {
        "radius_residual": rad_err,
        "angle_base_spread": theta_spread,
        "residual": res,
        "chain": [("i", r1), ("L_xi'", r2), ("i", r3)],
        "family": f3,
    }
