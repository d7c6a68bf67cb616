"""Line-by-line integration of the first-order net systems.

Three completely integrable systems are handled:

* the net system for a triple (v, h, V), integrated from per-axis data by a
  Goursat-type march (one axis-0 march seeds the base row; each rotation
  coefficient then advances along a direction where its derivative is
  determined, the sweep-axis row being reconstructed by quadrature from its
  own axis data);
* the tensor system  dB_m/du_j = h_{jm} B_{j'}  for Dupin-tensor eigenvalue
  data B, whose state carries a batch of columns so that several seeds share
  one sweep;
* the joint linear system for (phi, gamma, beta) driven by B, whose solutions
  induce Ribaucour transforms; its B rows use the same tensor-system rate.

The tensor, joint and moving-frame systems are total linear systems, filled
by one sweep engine (``_sweep``): classical fixed-step 4th-order Runge-Kutta
along grid lines, axis by axis, with a fixed number of substeps per cell (no
adaptivity); repeating the sweep in the reversed axis order gives the
built-in path-independence health check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import FrameDrift, UnsupportedGrid
from .net import ClassMap, ImmersionSample, ResidualReport, Triple, validate_triple
from .numerics import TensorGrid, fd_axis

__all__ = [
    "RibaucourSolution",
    "TripleAxisData",
    "integrate_triple",
    "solve_B",
    "solve_linear",
    "reconstruct_frame",
    "axis_data_from_triple",
    "cumulative_integral",
]

BLOWUP_BOUND = 1e12


# ---------------------------------------------------------------------------
# coefficient providers


class _AnalyticProvider:
    def __init__(self, triple: Triple):
        self.triple = triple
        self.grid = triple.grid

    def line_eval(self, axis: int, idx: np.ndarray, t: float) -> dict:
        g = self.grid
        pts = np.empty((idx.shape[0], g.ndim))
        for d in range(g.ndim):
            pts[:, d] = g.origins[d] + g.spacings[d] * idx[:, d]
        pts[:, axis] = t
        return self.triple.analytic(pts)


class _GridProvider:
    """Cubic Lagrange interpolation of node fields along the sweep axis."""

    def __init__(self, triple: Triple):
        self.triple = triple
        self.grid = triple.grid

    def _weights(self, axis: int, t: float):
        g = self.grid
        n = g.shape[axis]
        s = (t - g.origins[axis]) / g.spacings[axis]
        if n < 4:
            raise UnsupportedGrid("grid triple interpolation needs >= 4 nodes per axis")
        i0 = int(np.clip(np.floor(s) - 1, 0, n - 4))
        xs = np.arange(i0, i0 + 4, dtype=float)
        w = np.ones(4)
        for m in range(4):
            for l in range(4):
                if l != m:
                    w[m] *= (s - xs[l]) / (xs[m] - xs[l])
        return i0, w

    def _interp(self, field: np.ndarray, axis: int, idx: np.ndarray, i0: int, w: np.ndarray):
        # field: (comp..., *grid); idx: (B, D) node indices, sweep-axis entry ignored
        out = None
        lead = field.ndim - self.grid.ndim
        for m in range(4):
            take = [idx[:, d] for d in range(self.grid.ndim)]
            take[axis] = np.full(idx.shape[0], i0 + m)
            sl = (slice(None),) * lead + tuple(take)
            term = w[m] * field[sl]
            out = term if out is None else out + term
        return out

    def line_eval(self, axis: int, idx: np.ndarray, t: float) -> dict:
        i0, w = self._weights(axis, t)
        tr = self.triple
        return {
            "v": self._interp(tr.v, axis, idx, i0, w),
            "h": self._interp(tr.h, axis, idx, i0, w),
            "V": self._interp(tr.V, axis, idx, i0, w),
        }


def _provider_for(triple: Triple):
    return _AnalyticProvider(triple) if triple.analytic is not None else _GridProvider(triple)


# ---------------------------------------------------------------------------
# generic total-system sweep


def _rk4_span(rhs, y0: np.ndarray, t0: float, t1: float, substeps: int) -> np.ndarray:
    h = (t1 - t0) / substeps
    y = y0
    t = t0
    for _ in range(substeps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def _sweep_total(grid: TensorGrid, state0: np.ndarray, rhs_factory, order, substeps: int) -> np.ndarray:
    """Fill the grid with states of a total linear system, axis by axis."""
    D = grid.ndim
    S = state0.size
    out = np.full(grid.shape + (S,), np.nan)
    out[(0,) * D] = state0
    done = []
    for a in order:
        ranges = [range(grid.shape[d]) if d in done else (0,) for d in range(D)]
        idx = np.array(list(itertools.product(*ranges)), dtype=int)
        rhs = rhs_factory(a, idx)
        coords = grid.axis_coords(a)
        sel = tuple(idx.T)
        Y = out[sel]
        for j in range(1, grid.shape[a]):
            Y = _rk4_span(rhs, Y, coords[j - 1], coords[j], substeps)
            store = idx.copy()
            store[:, a] = j
            out[tuple(store.T)] = Y
        done.append(a)
    return out


def _field_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(np.nanmax(np.abs(a)), 1e-30)
    return float(np.nanmax(np.abs(a - b)) / scale)


def _sweep(grid: TensorGrid, state0: np.ndarray, rhs_factory, order, substeps: int,
           check_alternate: bool):
    """Sweep a total linear system in `order` (default: axis order); returns
    (states, reports).  With check_alternate on a grid of >= 2 axes the sweep
    is repeated in the reversed order and the relative disagreement of the
    two is reported as path_independence."""
    order = tuple(range(grid.ndim)) if order is None else tuple(order)
    states = _sweep_total(grid, state0, rhs_factory, order, substeps)
    reports = {}
    if check_alternate and grid.ndim > 1:
        alt = _sweep_total(grid, state0, rhs_factory, tuple(reversed(order)), substeps)
        reports["path_independence"] = _field_rel_diff(states, alt)
    return states, reports


def _bounded(x: np.ndarray, axis: int) -> np.ndarray:
    """Nodes whose values along `axis` are finite and below the blow-up bound."""
    return np.isfinite(x).all(axis=axis) & (np.abs(x).max(axis=axis) < BLOWUP_BOUND)


# ---------------------------------------------------------------------------
# the tensor system dB_m/du_j = h_{jm} B_{j'}


def _tensor_rate(h_axis: np.ndarray, B: np.ndarray, ca: int) -> np.ndarray:
    """Rate h[axis, m] * B_{ca} along the sweep axis; h_axis is (k, nodes), B is
    (nodes, k, M) with a trailing batch of M columns."""
    return h_axis.T[:, :, None] * B[:, ca][:, None, :]


def _tensor_rhs_factory(provider, class_map: ClassMap, k: int):
    cls = class_map.classes

    def factory(axis: int, idx: np.ndarray):
        ca = cls[axis]

        def rhs(t: float, Y: np.ndarray) -> np.ndarray:
            h = provider.line_eval(axis, idx, t)["h"]
            return _tensor_rate(h[axis], Y.reshape(Y.shape[0], k, -1), ca).reshape(Y.shape)

        return rhs

    return factory


def _sweep_tensor(triple: Triple, B0: np.ndarray, substeps: int, order=None,
                  check_alternate: bool = False):
    """Sweep the tensor system from the M seed columns of B0 (k, M) at once;
    returns (B (M, k, *grid), reports)."""
    k, M = B0.shape
    factory = _tensor_rhs_factory(_provider_for(triple), triple.class_map, k)
    states, reports = _sweep(triple.grid, B0.reshape(-1), factory, order, substeps,
                             check_alternate)
    B = states.reshape(triple.grid.shape + (k, M))
    return np.moveaxis(B, (-1, -2), (0, 1)), reports


# ---------------------------------------------------------------------------
# the joint (B, phi, gamma, beta) system


@dataclass
class RibaucourSolution:
    """Solution fields (phi, gamma, beta) of the linear system, plus B.

    Induces the transform data F = f_* grad phi + beta with
    grad phi = sum_i gamma_i X_i; B_m / v_m are the eigenvalues of the
    commuting Codazzi tensor Phi on each class (Dupin type).
    """

    grid: TensorGrid
    class_map: ClassMap
    phi: np.ndarray
    gamma: np.ndarray          # (D, *grid)
    beta: np.ndarray           # (R, *grid)
    B: np.ndarray              # (k, *grid)
    mask: np.ndarray | None = None
    reports: dict | None = None

    @property
    def n_normals(self) -> int:
        return self.beta.shape[0]

    def valid(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.grid.shape, dtype=bool)
        return self.mask

    def scaled(self, lam: float) -> "RibaucourSolution":
        return replace(self, phi=lam * self.phi, gamma=lam * self.gamma,
                       beta=lam * self.beta, B=lam * self.B)

    def canonical(self, n_indices, triple: Triple, base=None) -> "RibaucourSolution":
        """Canonical class representative: phi(base)=1 (else |beta(base)|=1),
        and the N-components of beta vanish at the base node (absorbed into
        the parallel-section offset; B is adjusted consistently)."""
        base = (0,) * self.grid.ndim if base is None else tuple(base)
        sel = (slice(None),) + base
        phi0 = self.phi[base]
        if abs(phi0) > 1e-12:
            lam = 1.0 / phi0
        else:
            bnorm = np.linalg.norm(self.beta[sel])
            if bnorm < 1e-15:
                raise ValueError("cannot canonicalize: phi(base) = 0 and beta(base) = 0")
            lam = 1.0 / bnorm
        sol = self.scaled(lam)
        beta = sol.beta.copy()
        B = sol.B.copy()
        for l in n_indices:
            c = beta[l][base]
            beta[l] = beta[l] - c
            B += c * triple.V[:, l]
        return replace(sol, beta=beta, B=B)


def _joint_rhs_factory(provider, class_map: ClassMap, D: int, k: int):
    cls = class_map.classes

    def factory(axis: int, idx: np.ndarray):
        ca = cls[axis]

        def rhs(t: float, Y: np.ndarray) -> np.ndarray:
            C = provider.line_eval(axis, idx, t)
            v, h, V = C["v"], C["h"], C["V"]
            B = Y[:, :k].T
            phi = Y[:, k]
            gam = Y[:, k + 1 : k + 1 + D].T
            bet = Y[:, k + 1 + D :].T
            dY = np.empty_like(Y)
            # dB_m = h[axis, m] * B_{ca}
            dY[:, :k] = _tensor_rate(h[axis], Y[:, :k, None], ca)[..., 0]
            # dphi = v_{ca} * gamma_axis
            dY[:, k] = v[ca] * gam[axis]
            # dgamma_j = h[j, ca] * gamma_axis (j != axis)
            for j in range(D):
                if j != axis:
                    dY[:, k + 1 + j] = h[j, ca] * gam[axis]
            # dgamma_axis = B_{ca} - sum_{j != axis} h[j, ca] gamma_j + sum_r beta_r V[ca, r]
            diag = B[ca].copy()
            for j in range(D):
                if j != axis:
                    diag -= h[j, ca] * gam[j]
            diag += (bet * V[ca]).sum(axis=0)
            dY[:, k + 1 + axis] = diag
            # dbeta_r = -V[ca, r] * gamma_axis
            dY[:, k + 1 + D :] = (-V[ca] * gam[axis]).T
            return dY

        return rhs

    return factory


def _solution_from_states(triple: Triple, states: np.ndarray, reports: dict) -> RibaucourSolution:
    g = triple.grid
    D, k, R = g.ndim, triple.n_classes, triple.n_normals
    move = np.moveaxis(states, -1, 0)
    B = move[:k]
    phi = move[k]
    gamma = move[k + 1 : k + 1 + D]
    beta = move[k + 1 + D :]
    good = _bounded(states, axis=-1)
    # phi crossing zero is not fatal, but the transform is undefined there
    phi_scale = np.nanmax(np.abs(phi))
    if phi_scale > 0:
        vanished = np.abs(phi) < 1e-12 * phi_scale
        if vanished.any() and not vanished.all():
            good &= ~vanished
            reports["phi_vanishes_fraction"] = float(vanished.mean())
    mask = None if good.all() else good
    return RibaucourSolution(grid=g, class_map=triple.class_map, phi=phi.copy(),
                             gamma=gamma.copy(), beta=beta.copy(), B=B.copy(),
                             mask=mask, reports=reports)


def solve_linear(triple: Triple, B0, phi0: float, gamma0, beta0,
                 substeps: int = 12, order=None, check_alternate: bool = True) -> RibaucourSolution:
    """Integrate the joint (B, phi, gamma, beta) system from base-node data.

    B is co-integrated from B0 so every stage evaluation is consistent; the
    solution is linear in (B0, phi0, gamma0, beta0).  The report carries the
    relative disagreement of the two sweep orders and a finite-difference
    residual of the normal-gradient constraint on the solved fields.
    """
    g = triple.grid
    D, k, R = g.ndim, triple.n_classes, triple.n_normals
    B0 = np.zeros(k) if B0 is None else np.asarray(B0, dtype=float)
    gamma0 = np.zeros(D) if gamma0 is None else np.asarray(gamma0, dtype=float)
    beta0 = np.zeros(R) if beta0 is None else np.asarray(beta0, dtype=float)
    if B0.shape != (k,) or gamma0.shape != (D,) or beta0.shape != (R,):
        raise ValueError("seed shapes must be (k,), (D,), (R,)")
    state0 = np.concatenate([B0, [float(phi0)], gamma0, beta0])
    factory = _joint_rhs_factory(_provider_for(triple), triple.class_map, D, k)
    states, reports = _sweep(g, state0, factory, order, substeps, check_alternate)
    sol = _solution_from_states(triple, states, reports)
    reports["gnorm_fd"] = _gnorm_residual(triple, sol)
    return sol


def solve_B(triple: Triple, B0, substeps: int = 12, order=None,
            check_alternate: bool = True) -> RibaucourSolution:
    """Integrate d B_m / d u_j = h_{jm} B_{j'} alone.

    The B block of the joint system is autonomous, so only it is swept; the
    accompanying (phi, gamma, beta) fields are returned as zeros.
    """
    g = triple.grid
    D, k, R = g.ndim, triple.n_classes, triple.n_normals
    B0 = np.asarray(B0, dtype=float)
    if B0.shape != (k,):
        raise ValueError("B seed shape must be (k,)")
    B, reports = _sweep_tensor(triple, B0[:, None], substeps, order, check_alternate)
    good = _bounded(B[0], axis=0)
    return RibaucourSolution(grid=g, class_map=triple.class_map, phi=np.zeros(g.shape),
                             gamma=np.zeros((D,) + g.shape), beta=np.zeros((R,) + g.shape),
                             B=B[0].copy(), mask=None if good.all() else good, reports=reports)


def _gnorm_residual(triple: Triple, sol: RibaucourSolution) -> float:
    """fd residual of gamma_j V_{j'}^r / v_{j'} + X_j(beta_r) = 0."""
    g = triple.grid
    cls = triple.class_map.classes
    interior = g.interior_mask(2) & sol.valid()
    if not interior.any():
        return float("nan")
    worst = 0.0
    for j in range(g.ndim):
        vj = triple.v[cls[j]]
        for r in range(triple.n_normals):
            db = fd_axis(sol.beta[r], g.spacings[j], j, 1, acc=4)
            res = (sol.gamma[j] * triple.V[cls[j], r] + db) / vj
            worst = max(worst, float(np.abs(res[interior]).max()))
    return worst


# ---------------------------------------------------------------------------
# frame reconstruction


def reconstruct_frame(triple: Triple, frame0=None, base_point=None,
                      substeps: int = 12, order=None, tol: float = 1e-8,
                      check_alternate: bool = True) -> ImmersionSample:
    """Integrate the moving-frame system of a validated triple.

    frame0 is a tuple (X0 (D, N), xi0 (R, N)) of orthonormal columns spanning
    tangent and normal directions at the base node; base_point defaults to
    the origin of the ambient space R^N with N = D + R ... (D tangent + R
    normal directions).  The Gram defect of the integrated frame must stay
    below tol, else FrameDrift is raised (no silent re-orthonormalization).
    """
    g = triple.grid
    D, k, R = g.ndim, triple.n_classes, triple.n_normals
    if frame0 is None:
        N = D + R
        eye = np.eye(N)
        frame0 = (eye[:D], eye[D:])
    X0, xi0 = np.asarray(frame0[0], dtype=float), np.asarray(frame0[1], dtype=float)
    N = X0.shape[1]
    if xi0.shape != (R, N) or X0.shape != (D, N):
        raise ValueError("frame0 must be (X0 (D,N), xi0 (R,N))")
    F = np.vstack([X0, xi0])
    if np.abs(F @ F.T - np.eye(D + R)).max() > 1e-10:
        raise ValueError("frame0 is not orthonormal")
    base_point = np.zeros(N) if base_point is None else np.asarray(base_point, dtype=float)

    cls = triple.class_map.classes
    provider = _provider_for(triple)

    def factory(axis: int, idx: np.ndarray):
        ca = cls[axis]

        def rhs(t: float, Y: np.ndarray) -> np.ndarray:
            C = provider.line_eval(axis, idx, t)
            v, h, V = C["v"], C["h"], C["V"]
            Z = Y.reshape(Y.shape[0], 1 + D + R, N)
            gpos, X, xi = Z[:, 0], Z[:, 1 : 1 + D], Z[:, 1 + D :]
            dZ = np.empty_like(Z)
            Xa = X[:, axis]
            dZ[:, 0] = v[ca][:, None] * Xa
            for j in range(D):
                if j != axis:
                    dZ[:, 1 + j] = h[j, ca][:, None] * Xa
            acc = np.zeros_like(Xa)
            for j in range(D):
                if j != axis:
                    acc -= h[j, ca][:, None] * X[:, j]
            for r in range(R):
                acc += V[ca, r][:, None] * xi[:, r]
            dZ[:, 1 + axis] = acc
            for r in range(R):
                dZ[:, 1 + D + r] = -V[ca, r][:, None] * Xa
            return dZ.reshape(Y.shape)

        return rhs

    state0 = np.concatenate([base_point[None], X0, xi0]).reshape(-1)
    states, reports = _sweep(g, state0, factory, order, substeps, check_alternate)
    Z = states.reshape(g.shape + (1 + D + R, N))
    positions = Z[..., 0, :]
    X = np.moveaxis(Z[..., 1 : 1 + D, :], -2, 0)
    xi = np.moveaxis(Z[..., 1 + D :, :], -2, 0)

    frame = np.concatenate([X, xi], axis=0)          # (D+R, *grid, N)
    Fmat = np.moveaxis(frame, 0, -2)                 # (*grid, D+R, N)
    gram = Fmat @ np.swapaxes(Fmat, -1, -2)
    defect = np.abs(gram - np.eye(D + R)).max()
    if defect > tol:
        raise FrameDrift(f"Gram defect {defect:.3e} exceeds tol {tol:g}")

    reports = {"gram_defect": float(defect), **reports}

    lame = triple.lame()
    kap = np.stack([triple.V[cls[i]] / triple.v[cls[i]] for i in range(D)])
    sample = ImmersionSample(g, positions, tangents=X.copy(), normals=xi.copy(),
                             lame=lame, sff=kap, triple=triple, mask=triple.mask)
    sample.reports = reports
    return sample


# ---------------------------------------------------------------------------
# cumulative quadrature (4th order, uniform nodes)

_CUM_INNER = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_CUM_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0


def cumulative_integral(y: np.ndarray, h: float, axis: int = -1) -> np.ndarray:
    """Cumulative integral from the first node, 4th order on uniform nodes.

    Each interval integrates the cubic through its four nearest nodes
    (Adams-Moulton style end corrections); exact for cubic polynomials.
    """
    y = np.asarray(y, dtype=float)
    y = np.moveaxis(y, axis, -1)
    n = y.shape[-1]
    if n < 4:
        raise UnsupportedGrid("cumulative integral needs >= 4 nodes")
    inc = np.empty(y.shape[:-1] + (n - 1,))
    inc[..., 0] = y[..., :4] @ _CUM_FIRST
    if n > 4:
        stack = np.stack([y[..., m : m + n - 3] for m in range(4)], axis=-1)
        inc[..., 1 : n - 2] = stack @ _CUM_INNER
    inc[..., n - 2] = y[..., -4:] @ _CUM_FIRST[::-1]
    out = np.concatenate([np.zeros(y.shape[:-1] + (1,)), np.cumsum(inc, axis=-1)], axis=-1)
    return np.moveaxis(out * h, -1, axis)


# ---------------------------------------------------------------------------
# triple integration from per-axis data (Goursat march)


@dataclass
class TripleAxisData:
    """Per-axis free data for the net system.

    h_rows[j] is a callable t -> (k, ...) giving the rotation-coefficient row
    h_{j, m} on the axis-j line through the base node; v0 and V0 are the
    base-node values of v_m and V_m^r.
    """

    v0: np.ndarray
    V0: np.ndarray
    h_rows: tuple

    def __post_init__(self):
        self.v0 = np.asarray(self.v0, dtype=float)
        self.V0 = np.asarray(self.V0, dtype=float)


def axis_data_from_triple(triple: Triple) -> TripleAxisData:
    """Extract per-axis data from a triple.

    Analytic triples provide exact callables; node-valued triples (e.g.
    deserialized ones) fall back to cubic Lagrange interpolation of the
    h-rows along their own axes.
    """
    g = triple.grid
    base = np.array(g.origins)
    if triple.analytic is not None:
        def row(j):
            def fn(t):
                t = np.asarray(t, dtype=float)
                pts = np.broadcast_to(base, t.shape + (g.ndim,)).copy()
                pts[..., j] = t
                return triple.analytic(pts)["h"][j]
            return fn

        at_base = triple.analytic(base[None])
        return TripleAxisData(v0=at_base["v"][:, 0], V0=at_base["V"][:, :, 0],
                              h_rows=tuple(row(j) for j in range(g.ndim)))

    provider = _GridProvider(triple)
    base_idx = (0,) * g.ndim

    def row(j):
        def fn(t):
            scalar = np.ndim(t) == 0
            ts = np.atleast_1d(np.asarray(t, dtype=float))
            out = np.empty((triple.n_classes,) + ts.shape)
            idx = np.zeros((1, g.ndim), dtype=int)
            for a, ta in enumerate(ts):
                i0, wgt = provider._weights(j, float(ta))
                out[:, a] = provider._interp(triple.h[j], j, idx, i0, wgt)[:, 0]
            return out[:, 0] if scalar else out
        return fn

    sel = (slice(None),) + base_idx
    return TripleAxisData(v0=triple.v[sel].copy(), V0=triple.V[(slice(None), slice(None)) + base_idx].copy(),
                          h_rows=tuple(row(j) for j in range(g.ndim)))


def _march_axis0(data: TripleAxisData, grid: TensorGrid, class_map: ClassMap, substeps: int):
    """March (v, V) along the axis-0 line through the base node; returns
    (v (k, n), V (k, R, n), h row (k, n)) on that line."""
    k = class_map.n_classes
    R = data.V0.shape[1]
    ca = class_map.classes[0]
    hrow = data.h_rows[0]

    def rhs(t, Y):
        hv = np.atleast_1d(hrow(np.asarray(t)))  # (k,)
        v = Y[:, :k]
        V = Y[:, k:].reshape(-1, k, R)
        dY = np.empty_like(Y)
        dY[:, :k] = hv[None, :] * v[:, ca][:, None]
        dY[:, k:] = (hv[None, :, None] * V[:, ca][:, None, :]).reshape(-1, k * R)
        return dY

    coords = grid.axis_coords(0)
    n = grid.shape[0]
    v = np.empty((k, n))
    V = np.empty((k, R, n))
    v[:, 0] = data.v0
    V[:, :, 0] = data.V0
    Y = np.concatenate([data.v0, data.V0.reshape(-1)])[None]
    for j in range(1, n):
        Y = _rk4_span(rhs, Y, coords[j - 1], coords[j], substeps)
        v[:, j] = Y[0, :k]
        V[:, :, j] = Y[0, k:].reshape(k, R)
    return v, V, np.reshape(hrow(coords), (k, n))


def _integrate_triple_2d(data: TripleAxisData, grid: TensorGrid, class_map: ClassMap,
                         substeps: int) -> Triple:
    """March rows along axis 1 after seeding the axis-0 base row."""
    k = class_map.n_classes
    R = data.V0.shape[1]
    ca, cb = class_map.classes
    na, nb = grid.shape
    hb_fn = data.h_rows[1]
    ub = grid.axis_coords(1)
    hstep = grid.spacings[0]
    row_v, row_V, row_ha = _march_axis0(data, grid, class_map, substeps)

    v = np.empty((k, na, nb))
    V = np.empty((k, R, na, nb))
    h = np.empty((2, k, na, nb))

    def reconstruct_hb(ha_row: np.ndarray, t: float) -> np.ndarray:
        """Row values of h_{1, m}(., t) from the axis-1 data at t."""
        hb0 = hb_fn(np.asarray(t))                     # (k,)
        E = np.exp(cumulative_integral(ha_row[ca], hstep))
        hb = np.empty((k, na))
        hb[ca] = hb0[ca] * E
        for m in range(k):
            if m != ca:
                hb[m] = hb0[m] + cumulative_integral(hb[ca] * ha_row[m], hstep)
        return hb

    # row state: [v (k, na), V (k*R, na), ha (k, na)]
    def pack(v_, V_, ha_):
        return np.concatenate([v_.reshape(-1), V_.reshape(-1), ha_.reshape(-1)])

    def unpack(Y_):
        v_ = Y_[: k * na].reshape(k, na)
        V_ = Y_[k * na : k * na + k * R * na].reshape(k, R, na)
        ha_ = Y_[k * na + k * R * na :].reshape(k, na)
        return v_, V_, ha_

    def rhs_b(t, Yb):
        v_, V_, ha_ = unpack(Yb[0])
        hb = reconstruct_hb(ha_, t)
        dv = hb * v_[cb][None, :]
        dV = hb[:, None, :] * V_[cb][None, :, :]
        dha = ha_[cb][None, :] * hb
        return pack(dv, dV, dha)[None]

    Yb = pack(row_v, row_V, row_ha)[None]
    v[:, :, 0], V[:, :, :, 0] = row_v, row_V
    h[0, :, :, 0] = row_ha
    h[1, :, :, 0] = reconstruct_hb(row_ha, ub[0])
    for j in range(1, nb):
        Yb = _rk4_span(rhs_b, Yb, ub[j - 1], ub[j], substeps)
        v_, V_, ha_ = unpack(Yb[0])
        v[:, :, j] = v_
        V[:, :, :, j] = V_
        h[0, :, :, j] = ha_
        h[1, :, :, j] = reconstruct_hb(ha_, ub[j])
    return Triple(grid, class_map, v, h, V)


def _transpose_triple(t: Triple) -> Triple:
    grid = TensorGrid((t.grid.shape[1], t.grid.shape[0]),
                      (t.grid.spacings[1], t.grid.spacings[0]),
                      (t.grid.origins[1], t.grid.origins[0]))
    cm = ClassMap((t.class_map.classes[1], t.class_map.classes[0]))
    v = np.swapaxes(t.v, 1, 2)
    V = np.swapaxes(t.V, 2, 3)
    h = np.stack([np.swapaxes(t.h[1], 1, 2), np.swapaxes(t.h[0], 1, 2)])
    return Triple(grid, cm, v, h, V)


def integrate_triple(data: TripleAxisData, grid: TensorGrid, class_map: ClassMap,
                     substeps: int = 12, sweep_order=(0, 1), tol: float = 1e-6):
    """Propagate a triple from per-axis data; returns (Triple, ResidualReport).

    Supports 1-d and 2-d grids with one coordinate per class (higher-
    dimensional nets are produced by the transform recursion, not by direct
    integration).  The report carries the residuals of the net system on the
    result; equation (ii) is the mixed-partial compatibility of the supplied
    axis data and is not enforced by the march.
    """
    if not class_map.is_simple():
        raise UnsupportedGrid("direct triple integration requires one coordinate per class")
    if grid.ndim == 1:
        v, V, h = _march_axis0(data, grid, class_map, substeps)
        t = Triple(grid, class_map, v, h[None], V)
    elif grid.ndim == 2:
        if tuple(sweep_order) == (0, 1):
            t = _integrate_triple_2d(data, grid, class_map, substeps)
        elif tuple(sweep_order) == (1, 0):
            grid_t = TensorGrid((grid.shape[1], grid.shape[0]),
                                (grid.spacings[1], grid.spacings[0]),
                                (grid.origins[1], grid.origins[0]))
            cm_t = ClassMap((class_map.classes[1], class_map.classes[0]))
            data_t = TripleAxisData(v0=data.v0, V0=data.V0, h_rows=(data.h_rows[1], data.h_rows[0]))
            t = _transpose_triple(_integrate_triple_2d(data_t, grid_t, cm_t, substeps))
        else:
            raise ValueError("sweep_order must be (0, 1) or (1, 0)")
    else:
        raise UnsupportedGrid("triple integration supports 1-d and 2-d grids; "
                              "higher-dimensional nets come from the transform recursion")
    bad = ~np.isfinite(t.v).all(axis=0) | (np.abs(t.v) > BLOWUP_BOUND).any(axis=0)
    if bad.any():
        t.mask = ~bad
    report = validate_triple(t, tol=tol)
    return t, report
