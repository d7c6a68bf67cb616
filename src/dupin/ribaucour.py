"""Ribaucour and N-Ribaucour transforms of holonomic samples.

Central formulas (all assembled from solution fields, with exact partials
via the jet layer):

    F     = f_* grad(phi) + beta,   nu = |F|^{-2}
    f~    = f - 2 phi nu F
    P(Z)  = Z - 2 nu <F, Z> F       (ambient bundle isometry)
    delta = -F / phi,   D = I - 2 phi nu Phi
    A~_{P xi} = D^{-1} (A_xi + 2 nu <beta, xi> Phi)

For Dupin-type data with a parallel-section offset t = sum_l y_l xi_{n_l},
the family tensor is Phi_t = Hess phi - A_{beta + t}; its eigenvalue data is
B_m^t = B_m - sum_l y_l V_m^{n_l}, and the transform of a holonomic net is
holonomic again with

    v~_m = v_m - 2 phi nu_t B_m^t        (value of v_m lambda_m^t, signed)
    v~_new = -2 phi nu_t                 (conformal factor of the new class)
    V~_m^r = V_m^r + 2 nu_t beta_r B_m^t (r outside the chosen subbundle)
    V~_new^r = 2 nu_t beta_r
    h~_{jm} = (d_j v~_m) / v~_{j'}       (exact jet derivative)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._jets import JS, JV
from .errors import GridMismatch, LambdaZero, NotCanonical, NotRegular, RankZero
from .integrable import RibaucourSolution, _gnorm_residual, solve_linear
from .net import (
    ClassMap,
    ImmersionSample,
    ParallelNormalSubbundle,
    PrincipalData,
    Triple,
    _fd_nodes,
    _worst,
    principal_normals_from_triple,
)
from .numerics import TensorGrid, _coord_axis, _lift, _sum_last, fd_axis

__all__ = [
    "GeneralW",
    "TransformJet",
    "NRibaucourResult",
    "ribaucour_transform",
    "n_ribaucour_transform",
    "combescure_check",
    "regularity_predicates",
    "transform_principal_data",
    "dupin_step",
    "inversion_w",
    "parallel_w",
    "ltrivial_w",
    "verify_mutual_ribaucour",
    "HolonomicJets",
]

_REGULAR_NODE_TOL = 1e-8   # |phi|, |F| and the D eigenvalues of a regular node exceed it
_CANONICAL_TOL = 1e-9      # |phi(base) - 1| and |beta_N(base)| of a canonical w
_REGULAR_GAP = 1e-6        # smallest separation of a regular configuration
_LAMBDA_TOL = 1e-10        # |lam_j| below this masks the node


@dataclass
class GeneralW:
    """Solution of the normal-gradient constraint with per-coordinate
    Codazzi-tensor eigenvalues (not necessarily of Dupin type)."""

    phi: np.ndarray
    gamma: np.ndarray       # (D, *grid)
    beta: np.ndarray        # (R, *grid)
    rho: np.ndarray         # (D, *grid) eigenvalue of Phi on each coordinate

    @property
    def dupin_type(self) -> bool:
        return False


def _reflect(F: np.ndarray, nu: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """P(Z) = Z - 2 nu <F, Z> F pointwise, for F, Z (..., N) and nu (...).
    The operations of the jet `HolonomicJets.P` on values, in its order, so
    the two agree bit for bit."""
    s = (nu * 2.0) * _sum_last(F * Z)
    return Z + -(s[..., None] * F)


# ---------------------------------------------------------------------------
# closed-form solution constructors


def inversion_w(s: ImmersionSample, P0, r: float) -> RibaucourSolution:
    """Inversion data: 2 phi = |f - P0|^2 - r^2, beta = (f - P0)_normal.

    Phi = I, so B = v (always a Dupin tensor).
    """
    t = s.triple
    P0 = np.asarray(P0, dtype=float)
    diff = s.positions - P0
    phi = 0.5 * ((diff**2).sum(-1) - r * r)
    gamma = (diff * s.tangents).sum(-1)
    beta = (diff * s.normals).sum(-1)
    return RibaucourSolution(grid=s.grid, class_map=t.class_map, phi=phi, gamma=gamma,
                             beta=beta, B=t.v.copy())


def parallel_w(s: ImmersionSample, coeffs) -> RibaucourSolution:
    """Parallel-translation data for xi = sum_r c_r xi_r: 2 phi = |xi|^2,
    beta = -xi.  Phi = A_xi, so B_m = sum_r c_r V_m^r."""
    t = s.triple
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (s.n_normals,):
        raise ValueError("need one coefficient per parallel frame vector")
    phi = np.full(s.grid.shape, 0.5 * float(c @ c))
    gamma = np.zeros((s.grid.ndim,) + s.grid.shape)
    beta = np.broadcast_to(-c.reshape((-1,) + (1,) * s.grid.ndim), (c.size,) + s.grid.shape).copy()
    B = np.einsum("r,mr...->m...", c, t.V)
    return RibaucourSolution(grid=s.grid, class_map=t.class_map, phi=phi, gamma=gamma,
                             beta=beta, B=B)


def ltrivial_w(s: ImmersionSample, a: float, v0, delta_coeffs, c: float) -> RibaucourSolution:
    """L-trivial data: F = a f + v0 + delta, 2 phi = a |f|^2 + 2 <f, v0> + c,
    with delta = sum_r d_r xi_r parallel.  Phi = a I - A_delta, so
    B_m = a v_m - sum_r d_r V_m^r."""
    t = s.triple
    v0 = np.asarray(v0, dtype=float)
    d = np.zeros(s.n_normals) if delta_coeffs is None else np.asarray(delta_coeffs, dtype=float)
    f = s.positions
    phi = 0.5 * (a * (f**2).sum(-1) + 2.0 * (f * v0).sum(-1) + c)
    F = a * f + v0
    gamma = (F * s.tangents).sum(-1)
    beta = (F * s.normals).sum(-1) + _coord_axis(d, s.grid.ndim + 1, 0)
    B = a * t.v - np.einsum("r,mr...->m...", d, t.V)
    return RibaucourSolution(grid=s.grid, class_map=t.class_map, phi=phi, gamma=gamma,
                             beta=beta, B=B)


# ---------------------------------------------------------------------------
# jet assembly


class HolonomicJets:
    """Exact first-derivative jets of a holonomic sample, a solution w and
    the induced transform on the product grid (L-grid) x (y-grid).

    With partials=False only the scalar jets that `new_triple`
    differentiates keep their partials: v_new through 2 phi nu (phi, gamma,
    beta, nu) and B_t (B, V, y).  The vector jets X, xi, g, F and f, and
    rho_class, lam and lam_coord, are values only, each the value of the
    full build bit for bit; `new_frames` and `P` then have no partials.
    `n_ribaucour_transform` builds so; `NRibaucourResult.jet` builds the
    full jets, partials and all, on first read."""

    def __init__(self, sample: ImmersionSample, w, n_indices=(), y_grid: TensorGrid | None = None,
                 partials: bool = True):
        if sample.triple is None or not sample.has_frames():
            raise ValueError("transform requires a sample with triple and frames")
        t = sample.triple
        if isinstance(w, RibaucourSolution) and w.grid.shape != t.grid.shape:
            raise GridMismatch("solution grid does not match sample grid")
        self.sample = sample
        self.triple = t
        self.w = w
        self.n_indices = tuple(n_indices)
        self.y_grid = y_grid
        self.L = t.grid
        self.D = t.grid.ndim
        self.k = t.n_classes
        self.R = t.n_normals
        self.N = sample.ambient_dim
        self.cls = t.class_map.classes
        self.s = len(self.n_indices)
        if y_grid is not None and y_grid.ndim != self.s:
            raise ValueError("y-grid rank must equal the subbundle rank")
        self.grid = t.grid if y_grid is None else t.grid.product(y_grid)
        self.Dp = self.grid.ndim
        with np.errstate(invalid="ignore", divide="ignore"):
            # degenerate nodes (phi F = 0, D singular) legitimately produce
            # non-finite intermediates; they are masked downstream
            self._build(partials)

    # -- construction ------------------------------------------------------
    def _build(self, partials: bool):
        t, w = self.triple, self.w
        D, k, R, cls, s = self.D, self.k, self.R, self.cls, self.s
        # the operand of a jet whose partials are not kept: its value alone
        # (an operation on values rounds as the same operation on jets)
        val = (lambda a: a) if partials else (lambda a: JS(a.val))
        vL, hL, VL = _lift(t.v, D, s, 1), _lift(t.h, D, s, 2), _lift(t.V, D, s, 2)
        phiL, gamL, betL = _lift(w.phi, D, s), _lift(w.gamma, D, s, 1), _lift(w.beta, D, s, 1)
        XL, xiL = _lift(self.sample.tangents, D, s, 1), _lift(self.sample.normals, D, s, 1)
        gL = _lift(self.sample.positions, D, s)

        dupin = isinstance(w, RibaucourSolution)
        self.dupin_type = dupin
        if dupin:
            BL = _lift(w.B, D, s, 1)
            rhoL = BL[list(cls)] / vL[list(cls)]
        else:
            BL = None
            rhoL = _lift(w.rho, D, s, 1)

        # base jets from the net-system rules
        self.v = [JS(vL[m], {j: hL[j][m] * vL[cls[j]] for j in range(D)}) for m in range(k)]
        self.V = [[JS(VL[m][r], {j: hL[j][m] * VL[cls[j]][r] for j in range(D)}) for r in range(R)]
                  for m in range(k)]
        self.phi = JS(phiL, {j: vL[cls[j]] * gamL[j] for j in range(D)})
        self.gamma = []
        for i in range(D):
            d = {}
            for j in range(D):
                if j != i:
                    d[j] = hL[i][cls[j]] * gamL[j]
            diag = vL[cls[i]] * rhoL[i]
            for kk in range(D):
                if kk != i:
                    diag = diag - hL[kk][cls[i]] * gamL[kk]
            for r in range(R):
                diag = diag + betL[r] * VL[cls[i]][r]
            d[i] = diag
            self.gamma.append(JS(gamL[i], d))
        self.beta = [JS(betL[r], {j: -VL[cls[j]][r] * gamL[j] for j in range(D)}) for r in range(R)]
        if dupin:
            self.B = [JS(BL[m], {j: hL[j][m] * BL[cls[j]] for j in range(D)}) for m in range(k)]
        else:
            self.B = None
        self.rho_coord = [JS(rhoL[i]) for i in range(D)]

        if partials:
            self.X = []
            for i in range(D):
                d = {}
                for j in range(D):
                    if j != i:
                        d[j] = hL[i][cls[j]][..., None] * XL[j]
                acc = np.zeros_like(XL[i])
                for kk in range(D):
                    if kk != i:
                        acc = acc - hL[kk][cls[i]][..., None] * XL[kk]
                for r in range(R):
                    acc = acc + VL[cls[i]][r][..., None] * xiL[r]
                d[i] = acc
                self.X.append(JV(XL[i], d))
            self.xi = [JV(xiL[r], {j: -VL[cls[j]][r][..., None] * XL[j] for j in range(D)})
                       for r in range(R)]
            self.g = JV(gL, {j: vL[cls[j]][..., None] * XL[j] for j in range(D)})
        else:
            self.X = [JV(x) for x in XL]
            self.xi = [JV(x) for x in xiL]
            self.g = JV(gL)

        # y symbols and the shifted beta entries
        self.y = [JS(_coord_axis(self.y_grid.axis_coords(l), self.Dp, D + l), {D + l: np.asarray(1.0)})
                  for l in range(s)]
        self.beta_t = list(self.beta)
        for l, r in enumerate(self.n_indices):
            self.beta_t[r] = self.beta[r] + self.y[l]

        # transform jets
        Q = None
        for i in range(D):
            Q = self.gamma[i] * self.gamma[i] if Q is None else Q + self.gamma[i] * self.gamma[i]
        for r in range(R):
            Q = Q + self.beta_t[r] * self.beta_t[r]
        self.nu = Q.inv()
        F = None
        for i in range(D):
            term = self.X[i].scale(val(self.gamma[i]))
            F = term if F is None else F + term
        for r in range(R):
            F = F + self.xi[r].scale(val(self.beta_t[r]))
        self.F = F
        self.two_phi_nu = 2.0 * self.phi * self.nu
        self.f = self.g - F.scale(val(self.two_phi_nu))
        # delta and beta_bar are read as values only: the value operations of
        # JV.scale, in the same order
        neg_inv_phi = ((1.0 / self.phi.val) * -1.0)[..., None]
        self.delta = neg_inv_phi * F.val
        bb = None
        for r in range(R):
            if r in self.n_indices:
                continue
            term = self.beta[r].val[..., None] * self.xi[r].val
            bb = term if bb is None else bb + term
        self.beta_bar = neg_inv_phi * bb if bb is not None else None

        if dupin:
            # the y-offset shifts the tensor: Phi_t = Hess phi - A_{beta + t},
            # so its eigenvalue data is B_m^t = B_m - sum_l y_l V_m^{n_l}
            self.B_t = []
            for m in range(k):
                bt = self.B[m]
                for l, r in enumerate(self.n_indices):
                    bt = bt - self.y[l] * self.V[m][r]
                self.B_t.append(bt)
            self.rho_class = [val(self.B_t[m]) / val(self.v[m]) for m in range(k)]
            self.lam = [1.0 - val(self.two_phi_nu) * self.rho_class[m] for m in range(k)]
            self.v_new = [self.v[m] - self.two_phi_nu * self.B_t[m] for m in range(k)]
            self.lam_coord = [self.lam[cls[i]] for i in range(D)]
        else:
            self.B_t = None
            self.rho_class = None
            self.lam = None
            self.v_new = None
            self.lam_coord = [1.0 - val(self.two_phi_nu) * self.rho_coord[i] for i in range(D)]
        self.v_new_class_s = -1.0 * self.two_phi_nu if self.s else None

    # -- derived objects ----------------------------------------------------
    def P(self, Z: JV) -> JV:
        return Z - self.F.scale(2.0 * self.nu * self.F.dot(Z))

    def _p_values(self, Z: np.ndarray) -> np.ndarray:
        """P(Z).val from the values of Z alone, bit for bit."""
        return _reflect(self.F.val, self.nu.val, Z)

    def full(self, a) -> np.ndarray:
        """Broadcast a jet value array to the full product-grid shape."""
        if a.shape[-1:] == (self.N,) and a.ndim == self.Dp + 1:
            return np.broadcast_to(a, self.grid.shape + (self.N,)).copy()
        return np.broadcast_to(a, self.grid.shape).copy()

    def new_frames(self):
        """Unit tangents and parallel normals of the transformed immersion."""
        Xn = [self.P(self.X[i]) for i in range(self.D)]
        for l in self.n_indices:
            Xn.append(self.P(self.xi[l]))
        Xin = [self.P(self.xi[r]) for r in range(self.R) if r not in self.n_indices]
        return Xn, Xin

    def new_triple(self) -> Triple:
        """Transformed holonomic net on the product grid (Dupin type only)."""
        if not self.dupin_type:
            raise ValueError("a holonomic transform needs Dupin-type data")
        k_new = self.k + (1 if self.s else 0)
        classes = tuple(self.cls) + (self.k,) * self.s
        cmap = ClassMap(classes) if self.s else self.triple.class_map
        out_r = [r for r in range(self.R) if r not in self.n_indices]
        Rn = len(out_r)
        # class Lame jets
        vbar = list(self.v_new)
        if self.s:
            vbar.append(self.v_new_class_s)
        # V + 2 nu beta B_t and 2 nu beta from values, as the jet operations
        # compute their values
        Vbar = np.empty((k_new, Rn) + self.grid.shape)
        two_nu = self.nu.val * 2.0
        for jr, r in enumerate(out_r):
            nu_beta = two_nu * self.beta[r].val
            for m in range(self.k):
                Vbar[m, jr] = self.V[m][r].val + nu_beta * self.B_t[m].val
            if self.s:
                Vbar[self.k, jr] = nu_beta
        v_arr = np.stack([self.full(vb.val) for vb in vbar])
        h_arr = np.empty((self.Dp, k_new) + self.grid.shape)
        for j in range(self.Dp):
            cj = classes[j]
            denom = v_arr[cj]
            for m in range(k_new):
                part = vbar[m].part(j)
                part = np.zeros(self.grid.shape) if isinstance(part, float) else self.full(part)
                h_arr[j, m] = part / denom
        return Triple(TensorGrid(self.grid.shape, self.grid.spacings, self.grid.origins),
                      cmap, v_arr, h_arr, Vbar)

    def new_sample(self, triple: Triple | None = None) -> ImmersionSample:
        """The transformed sample.  Its lame and sff are the new triple's:
        the one given, else `new_triple()` for Dupin-type data.  GeneralW
        data has no new triple; its lame and sff come from the jets, which
        give them only for the base coordinates (no y-grid)."""
        if triple is None and self.dupin_type:
            triple = self.new_triple()
        if triple is None and self.s:
            raise ValueError("GeneralW data gives no lame or sff for the y-grid coordinates")
        # the values of new_frames(), without the partials
        out_r = [r for r in range(self.R) if r not in self.n_indices]
        Z = [X.val for X in self.X] + [self.xi[l].val for l in self.n_indices]
        tangents = np.empty((len(Z),) + self.grid.shape + (self.N,))
        normals = np.empty((len(out_r),) + self.grid.shape + (self.N,))
        for i, z in enumerate(Z):
            tangents[i] = self._p_values(z)
        for i, r in enumerate(out_r):
            normals[i] = self._p_values(self.xi[r].val)
        grid = TensorGrid(self.grid.shape, self.grid.spacings, self.grid.origins)
        if triple is not None:
            return ImmersionSample(grid, self.full(self.f.val), tangents=tangents,
                                   normals=normals, triple=triple)
        lame = np.empty((self.D,) + self.grid.shape)
        sff = np.empty((self.D, len(out_r)) + self.grid.shape)
        for i in range(self.D):
            ci = self.cls[i]
            vi = JS(_lift(self.triple.v[ci], self.D, self.s))
            lame[i] = self.full((vi * self.lam_coord[i]).val)
            for jr, r in enumerate(out_r):
                kap = (self.V[ci][r] / vi + 2.0 * self.nu * self.beta[r] * self.rho_coord[i]) / self.lam_coord[i]
                sff[i, jr] = self.full(kap.val)
        return ImmersionSample(grid, self.full(self.f.val), tangents=tangents,
                               normals=normals, lame=lame, sff=sff)

    def regular_mask(self) -> np.ndarray:
        """Nodes where phi F != 0 and D is invertible (each above _REGULAR_NODE_TOL)."""
        ok = np.abs(self.full(self.phi.val)) > _REGULAR_NODE_TOL
        ok &= self.full(self.nu.val) < 1.0 / _REGULAR_NODE_TOL**2
        lam = self.lam if self.dupin_type else None
        mult = self.triple.class_map.multiplicities
        if lam is not None:
            det = None
            mx = None
            for m in range(self.k):
                lv = np.abs(self.full(lam[m].val))
                det = lv ** mult[m] if det is None else det * lv ** mult[m]
                mx = lv if mx is None else np.maximum(mx, lv)
            n = self.D
            ok &= det > 1e-8 * np.maximum(mx, 1.0) ** n
        else:
            for i in range(self.D):
                ok &= np.abs(self.full(self.lam_coord[i].val)) > _REGULAR_NODE_TOL
        return ok


# ---------------------------------------------------------------------------
# public transform API


@dataclass
class TransformJet:
    """Pointwise data of a Ribaucour transform: F, nu = |F|^{-2}, the Phi and
    D eigenvalues per class, delta = -F/phi and beta_bar = -phi^{-1} beta_perp."""

    F: np.ndarray
    nu: np.ndarray
    phi: np.ndarray
    rho: np.ndarray | None      # (k, *grid) Phi eigenvalues per class (Dupin type)
    lam: np.ndarray | None      # (k, *grid) D eigenvalues per class
    rho_coord: np.ndarray       # (D, *grid) Phi eigenvalue per coordinate
    lam_coord: np.ndarray       # (D, *grid)
    delta: np.ndarray
    beta_bar: np.ndarray | None
    jets: HolonomicJets

    def P_apply(self, Z: np.ndarray) -> np.ndarray:
        """Apply the bundle isometry P = I - 2 nu F F^* pointwise."""
        return _reflect(self.F, self.nu, Z)


def _make_jet(jets: HolonomicJets) -> TransformJet:
    full = jets.full
    return TransformJet(
        F=full(jets.F.val),
        nu=full(jets.nu.val),
        phi=full(jets.phi.val),
        rho=np.stack([full(r.val) for r in jets.rho_class]) if jets.dupin_type else None,
        lam=np.stack([full(l.val) for l in jets.lam]) if jets.dupin_type else None,
        rho_coord=np.stack([full(r.val) for r in jets.rho_coord]),
        lam_coord=np.stack([full(l.val) for l in jets.lam_coord]),
        delta=full(jets.delta),
        beta_bar=full(jets.beta_bar) if jets.beta_bar is not None else None,
        jets=jets,
    )


def ribaucour_transform(s: ImmersionSample, w) -> tuple:
    """Ribaucour transform f~ = f - 2 phi nu F of a holonomic sample.

    Returns (s_tilde, TransformJet).  Nodes where phi F vanishes or D
    degenerates are masked on the output, never extrapolated.
    """
    jets = HolonomicJets(s, w, n_indices=(), y_grid=None)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = jets.new_sample()
        ok = jets.regular_mask()
    out.mask = None if ok.all() else ok
    if out.triple is not None:
        out.triple.mask = out.mask
    return out, _make_jet(jets)


@dataclass
class NRibaucourResult:
    """An N-Ribaucour transform over the product of the base grid and a
    parallel-section box; leaves y -> f(u0, y) are conformal spheres/flats.

    `jet` and `principal` are built on first read from `base`, `w`,
    `n_indices` and the trailing (y-grid) axes of the sample's grid, which
    must not be mutated in between."""

    sample: ImmersionSample
    triple: Triple | None
    regular: np.ndarray
    base: ImmersionSample
    w: RibaucourSolution
    n_indices: tuple
    predicates: dict | None = None    # the regularity gate's report (dupin_step)

    @cached_property
    def jet(self) -> TransformJet:
        g, D = self.sample.grid, self.base.grid.ndim
        y_grid = TensorGrid(g.shape[D:], g.spacings[D:], g.origins[D:])
        return _make_jet(HolonomicJets(self.base, self.w, self.n_indices, y_grid))

    @cached_property
    def principal(self) -> PrincipalData:
        return principal_normals_from_triple(self.triple, self.sample)

    @property
    def grid(self) -> TensorGrid:
        return self.sample.grid

    def leaf_positions(self, u_idx) -> np.ndarray:
        """Positions of the leaf through base node u_idx, over the y-grid."""
        sl = tuple(u_idx) + (slice(None),) * (self.grid.ndim - len(u_idx))
        return self.sample.positions[sl]

    def slice_sample(self, y_idx) -> ImmersionSample:
        """The leaf-transversal slice at fixed y-index, as a sample over the
        base grid with the full transformed parallel normal frame."""
        jets = self.jet.jets
        D, Ny = jets.D, len(y_idx)
        sl = (slice(None),) * D + tuple(y_idx)
        slv = sl + (slice(None),)
        pos = self.sample.positions[slv]
        tang = np.stack([self.sample.tangents[i][slv] for i in range(D)])
        norms = [jets.full(jets._p_values(jets.xi[r].val))[slv] for r in range(jets.R)]
        lame = np.stack([self.sample.lame[i][sl] for i in range(D)])
        # per-slice shape coefficients with the shifted beta entries
        Rn = jets.R
        sff = np.empty((D, Rn) + jets.L.shape)
        for i in range(D):
            ci = jets.cls[i]
            for r in range(Rn):
                kap = (jets.V[ci][r] / jets.v[ci] + 2.0 * jets.nu * jets.beta_t[r] * jets.rho_class[ci]) / jets.lam[ci]
                sff[i, r] = jets.full(kap.val)[sl]
        return ImmersionSample(jets.L, pos, tangents=tang, normals=np.stack(norms),
                               lame=lame, sff=sff)


def n_ribaucour_transform(h: ImmersionSample, nsub: ParallelNormalSubbundle,
                          w: RibaucourSolution, y_grid: TensorGrid) -> NRibaucourResult:
    """N-Ribaucour transform of h determined by w over the parallel-section
    box y_grid, one axis per subbundle index.

    Requires the canonical class representative (phi(base) = 1 when nonzero
    and vanishing N-components of beta at the base node, both to within
    _CANONICAL_TOL).
    """
    if nsub.rank == 0:
        raise RankZero("the parallel subbundle must have rank >= 1")
    base = (0,) * h.grid.ndim
    phi0 = w.phi[base]
    bet0 = max(abs(w.beta[l][base]) for l in nsub.indices)
    if abs(phi0) > _CANONICAL_TOL and abs(phi0 - 1.0) > _CANONICAL_TOL:
        raise NotCanonical(f"phi(base) = {phi0:.6g}; canonicalize first")
    if bet0 > _CANONICAL_TOL:
        raise NotCanonical("beta has nonvanishing subbundle components at the base node")
    jets = HolonomicJets(h, w, n_indices=nsub.indices, y_grid=y_grid, partials=False)
    triple = jets.new_triple()
    sample = jets.new_sample(triple)
    ok = jets.regular_mask()
    mask = None if ok.all() else ok
    sample.mask = mask
    triple.mask = mask
    return NRibaucourResult(sample=sample, triple=triple, regular=ok, base=h, w=w,
                            n_indices=nsub.indices)


# ---------------------------------------------------------------------------
# checks and predicates


@np.errstate(divide="ignore", invalid="ignore", over="ignore")     # masked nodes may hold anything
def combescure_check(s: ImmersionSample, w) -> dict:
    """Finite-difference residuals of the Combescure property of F.

    Reports: dF = f_* Phi (per axis), the normal-gradient constraint, and the
    Hessian assembly Phi = Hess(phi) - A_beta (diagonal vs rho, off-diagonal
    vs zero), at the nodes `_fd_nodes` checks in the valid nodes of s and of
    a solution w; F's scale is read at those valid nodes.
    """
    t = s.triple
    g = s.grid
    if isinstance(w, RibaucourSolution) and w.grid.shape != g.shape:
        raise GridMismatch("w grid does not match sample grid")
    D, R, cls = g.ndim, s.n_normals, t.class_map.classes
    rho_coord = (np.stack([w.B[cls[i]] / t.v[cls[i]] for i in range(D)])
                 if isinstance(w, RibaucourSolution) else w.rho)
    F = np.einsum("i...,i...k->...k", w.gamma, s.tangents) + np.einsum(
        "r...,r...k->...k", w.beta, s.normals)
    valid = s.valid() & w.valid() if isinstance(w, RibaucourSolution) else s.valid()
    nodes = _fd_nodes(g, valid)
    out = {}
    worst = 0.0
    scale = np.maximum(_worst(np.moveaxis(F, -1, 0), valid), 1.0)
    for i in range(D):
        dF = fd_axis(F, g.spacings[i], i, 1)
        dg = fd_axis(s.positions, g.spacings[i], i, 1)
        res = dF - rho_coord[i][..., None] * dg
        worst = _worst(np.moveaxis(res, -1, 0) / scale, nodes, worst)
    out["combescure"] = worst

    out["gnorm"] = _gnorm_residual(t, w.gamma, w.beta, valid)

    # Phi = Hess phi - A_beta in the orthonormal frame
    lam = t.lame()
    dphi = [fd_axis(w.phi, g.spacings[i], i, 1) for i in range(D)]
    worst_d, worst_o = 0.0, 0.0
    for i in range(D):
        d2 = fd_axis(w.phi, g.spacings[i], i, 2)
        hess_ii = d2 - (t.h[i, cls[i]]) * dphi[i]
        for kk in range(D):
            if kk != i:
                # d_k l_i = h[k, i'] l_k
                hess_ii = hess_ii + lam[i] * t.h[kk, cls[i]] / lam[kk] * dphi[kk]
        abeta = sum(w.beta[r] * t.V[cls[i], r] for r in range(R)) / lam[i]
        phi_ii = hess_ii / lam[i] ** 2 - abeta
        worst_d = _worst(phi_ii - rho_coord[i], nodes, worst_d)
        for j in range(i + 1, D):
            dij = fd_axis(dphi[i], g.spacings[j], j, 1)
            hess_ij = dij - (t.h[j, cls[i]] * lam[j] / lam[i]) * dphi[i] - (
                t.h[i, cls[j]] * lam[i] / lam[j]) * dphi[j]
            worst_o = _worst(hess_ij / (lam[i] * lam[j]), nodes, worst_o)
    out["phi_diag_vs_rho"] = worst_d
    out["phi_offdiag"] = worst_o
    return out


def regularity_predicates(h: ImmersionSample, nsub: ParallelNormalSubbundle,
                          w: RibaucourSolution) -> dict:
    """Regularity of an N-Ribaucour configuration.

    Ew_zero: the regularity condition E(w) = 0 (no class projection agrees
    with beta_bar anywhere); regular: beta_bar and the projected principal
    normals, in the coefficients of the normals outside the subbundle, are
    everywhere pairwise distinct, min_gap being their least separation.
    Distinct means farther apart than _REGULAR_GAP.
    """
    t = h.triple
    k = t.n_classes
    out_r = [r for r in range(t.n_normals) if r not in nsub.indices]
    degenerate = len(out_r) == 0
    coeffs = []
    with np.errstate(divide="ignore", invalid="ignore"):
        bb = np.stack([-w.beta[r] / w.phi for r in out_r]) if out_r else None
        for m in range(k):
            coeffs.append(np.stack([t.V[m, r] / t.v[m] for r in out_r]) if out_r else None)
    report = {"degenerate_complement": degenerate}
    if degenerate:
        report.update({"Ew_zero": False, "regular": False, "min_gap": 0.0})
        return report
    valid = h.valid()
    gaps_to_bb = []
    for m in range(k):
        gap = np.sqrt(((coeffs[m] - bb) ** 2).sum(axis=0))
        gaps_to_bb.append(float(gap[valid].min()))
    pair_gaps = list(gaps_to_bb)
    for m in range(k):
        for mm in range(m + 1, k):
            gap = np.sqrt(((coeffs[m] - coeffs[mm]) ** 2).sum(axis=0))
            pair_gaps.append(float(gap[valid].min()))
    report["Ew_zero"] = min(gaps_to_bb) > _REGULAR_GAP
    report["regular"] = min(pair_gaps) > _REGULAR_GAP
    report["min_gap"] = min(pair_gaps)
    return report


def transform_principal_data(pd: PrincipalData, jet: TransformJet) -> PrincipalData:
    """Map principal normals through the transform:
    eta~_j = lam_j^{-1} P( (eta_j)_perp - 2 phi nu rho_j beta_bar ), with the
    new principal normal P(beta_bar) appended when a subbundle was used."""
    if jet.rho is None:
        raise ValueError("principal-normal transport needs Dupin-type data")
    jets = jet.jets
    n_idx, k = jets.n_indices, pd.k
    lam = jet.lam[:k]
    # the class normals without their subbundle components, on the product grid
    eta = np.broadcast_to(_lift(pd.eta, jets.D, jets.s, 1), (k,) + jet.F.shape).copy()
    for l in n_idx:
        xi = jets.xi[l].val
        eta -= (eta * xi).sum(-1)[..., None] * xi
    if jet.beta_bar is not None:
        eta = eta - (2.0 * jet.phi * jet.nu * jet.rho[:k])[..., None] * jet.beta_bar
    mask = (np.abs(lam) > _LAMBDA_TOL).all(0)
    with np.errstate(divide="ignore", invalid="ignore"):
        etas = jet.P_apply(eta) / lam[..., None]
    mult = tuple(pd.multiplicities)
    if n_idx and jet.beta_bar is not None:
        etas = np.concatenate([etas, jet.P_apply(jet.beta_bar)[None]])
        mult += (len(n_idx),)
    if not mask.all() and not mask.any():
        raise LambdaZero("a D eigenvalue vanishes everywhere")
    return PrincipalData(eta=etas, multiplicities=mult, mask=None if mask.all() else mask)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")     # masked nodes may hold anything
def verify_mutual_ribaucour(slice_a: ImmersionSample, slice_b: ImmersionSample) -> dict:
    """Check that two immersions of the same base are Ribaucour transforms:
    with u = (f - f~)/|f - f~| and P = I - 2 u u^T, P must map tangent
    spaces to tangent spaces and D = f_*^{-1} P^{-1} f~_* must be
    self-adjoint in the metric of f.  Both maxima are taken over the nodes
    valid in both slices; see `_worst`."""
    fa, fb = slice_a.positions, slice_b.positions
    valid = slice_a.valid() & slice_b.valid()
    diff = fa - fb
    norm = np.linalg.norm(diff, axis=-1)
    if norm.min(initial=np.inf, where=valid) < 1e-12:
        raise ValueError("slices coincide somewhere (f~ = f)")
    u = diff / norm[..., None]
    D = slice_a.grid.ndim
    Ea = np.stack([slice_a.lame[i][..., None] * slice_a.tangents[i] for i in range(D)])
    Eb = np.stack([slice_b.lame[i][..., None] * slice_b.tangents[i] for i in range(D)])
    # P Eb_j expressed against the frame of a: tangency + D-matrix
    PEb = Eb - 2.0 * np.einsum("...k,j...k->j...", u, Eb)[..., None] * u[None]
    Xa = slice_a.tangents
    coeff = np.einsum("j...k,i...k->...ji", PEb, Xa)
    recon = np.einsum("...ji,i...k->j...k", coeff, Xa)
    tangency = (_worst(np.moveaxis(PEb - recon, -1, 0), valid)
                / np.maximum(_worst(np.moveaxis(Eb, -1, 0), valid), 1e-30))
    # D in the coordinate basis: f_a* D = P^{-1} f_b* = P f_b*  (P^2 = I)
    Dmat = coeff / np.stack([slice_a.lame[i] for i in range(D)], axis=-1)[..., None, :]
    Ga = np.einsum("i...k,j...k->...ij", Ea, Ea)
    GD = np.einsum("...ij,...jl->...il", Ga, np.swapaxes(Dmat, -1, -2))
    GD = np.moveaxis(GD, (-2, -1), (0, 1))
    sym = _worst(GD - np.swapaxes(GD, 0, 1), valid) / np.maximum(_worst(GD, valid), 1e-30)
    return {"tangency": float(tangency), "d_symmetry": float(sym)}


# ---------------------------------------------------------------------------
# holonomic recursion step


def dupin_step(sample: ImmersionSample, n_indices, y_grid: TensorGrid,
               B0=None, phi0: float = 1.0, gamma0=None, beta0=None,
               substeps: int = 12) -> NRibaucourResult:
    """One recursion step: solve the linear systems on a holonomic k-Dupin
    sample, canonicalize, gate on regularity, and transform.

    Produces a (k+1)-class holonomic sample over (base grid) x (y_grid).
    """
    t = sample.triple
    sol = solve_linear(t, B0, phi0, gamma0, beta0, substeps=substeps)
    nsub = ParallelNormalSubbundle(n_indices)
    sol = sol.canonical(nsub.indices, t)
    preds = regularity_predicates(sample, nsub, sol)
    if not preds["regular"]:
        raise NotRegular(f"solution is not regular: min gap {preds['min_gap']:.3e}")
    res = n_ribaucour_transform(sample, nsub, sol, y_grid)
    res.predicates = preds
    return res
