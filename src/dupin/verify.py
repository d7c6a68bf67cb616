"""Independent finite-difference differential-geometry oracle.

Everything here works from raw position grids: metric and second fundamental
form by stencils on the chart, shape operators by symmetrized normal
projection, principal normals by simultaneous diagonalization, Dupin and
integrability residuals by contracted derivatives and Lie brackets.  Cached
frames or triples on a sample are deliberately ignored so these checks stay
independent of the construction path.

Diagnostics ignore the two outermost node layers (one-sided stencils are
noisier); rank decisions use singular-value gaps and always report the full
spectrum so borderline calls can be audited.

The per-node algebra is batched: stacked small-matrix products over all nodes
(or over the valid nodes only, in the derived checks), one LAPACK call per
stack of matrices, and one batched sphere fit over all leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import NotProper, RankDeficient, TooFewNodes
from .net import ImmersionSample, PrincipalData, Triple
from .numerics import TensorGrid, fd_axis, sphere_fit, _sphere_fit_batch, AffineFlat
from .ribaucour import NRibaucourResult

__all__ = [
    "NumericJet",
    "numeric_jet",
    "extract_principal_normals",
    "dupin_residual",
    "conullity_integrability",
    "sphere_leaf_check",
    "sf_report",
    "conformal_codim",
    "focal_constancy",
    "dupin_tensor_space",
    "DiagnosticsReport",
]

_RNG_SEED = 20260810
_RANK_GAP = 1e-6           # relative singular-value gap of rank decisions
_BRACKET_TOL = 1e-4        # relative bracket residual of an integrable conullity
_FLAT_GATE = 1e-4          # largest shape-operator commutator of a flat normal bundle
_ETA_TOL = 1e-5            # candidate-normal tolerance, relative to the shape scale
_STENCIL_WIDTH = 3         # masked-node margin along each axis of the derived checks
_ETA_FLOOR = 1e-8          # |eta_j| below this counts as a vanishing normal
_PROBE_SEEDS = 2           # random seeds swept beside the k unit seeds
_GAP_REQUIRED = 1e6        # sigma_k / sigma_{k+1} of a rank-k solution stack


@dataclass
class NumericJet:
    """Finite-difference fundamental forms of a position grid, with the
    metric's square root g_sqrt and inverse square root g_isqrt, both from
    the singular value decomposition of the chart frame."""

    grid: TensorGrid
    metric: np.ndarray         # (*grid, D, D)
    normal_proj: np.ndarray    # (*grid, N, N) projector onto the normal space
    alpha: np.ndarray          # (D, D, *grid, N) normal-projected second derivatives
    shape_sym: np.ndarray      # (p, *grid, D, D) symmetrized shape operators
    normal_basis: np.ndarray   # (p, *grid, N) orthonormal normal basis (not smooth)
    g_isqrt: np.ndarray        # (*grid, D, D) metric inverse square root
    g_sqrt: np.ndarray         # (*grid, D, D) metric square root
    interior: np.ndarray       # bool (*grid)

    @property
    def codim(self) -> int:
        return self.shape_sym.shape[0]


def numeric_jet(s: ImmersionSample) -> NumericJet:
    """Fundamental forms from raw positions, independent of cached data."""
    g = s.grid
    D = g.ndim
    pos = s.positions
    N = pos.shape[-1]
    if min(g.shape) < 5:
        raise TooFewNodes("need at least 5 nodes per axis for the oracle")
    interior = g.interior_mask(2) & s.valid()
    if not interior.any():
        raise TooFewNodes("no interior nodes left after masking")

    first = np.stack([fd_axis(pos, g.spacings[i], i, 1) for i in range(D)])
    second = np.empty((D, D) + g.shape + (N,))
    for i in range(D):
        second[i, i] = fd_axis(pos, g.spacings[i], i, 2)
        for j in range(i + 1, D):
            mixed = fd_axis(first[i], g.spacings[j], j, 1)
            second[i, j] = mixed
            second[j, i] = mixed

    metric = np.einsum("i...k,j...k->...ij", first, first)

    # orthonormal tangent/normal split per node via SVD of the chart frame
    E = np.moveaxis(first, 0, -2)                     # (*grid, D, N)
    U, sv, Vt = np.linalg.svd(E, full_matrices=True)
    tangent_basis = Vt[..., :D, :]                    # (*grid, D, N)
    normal_basis = np.moveaxis(Vt[..., D:, :], -2, 0)  # (p, *grid, N)
    normal_proj = np.eye(N) - tangent_basis.swapaxes(-1, -2) @ tangent_basis

    # alpha_ij = normal_proj second_ij, one (D*D, N) @ (N, N) product per node
    alpha = np.moveaxis(np.moveaxis(second.reshape(D * D, -1, N), 0, 1)
                        @ normal_proj.reshape(-1, N, N), 1, 0).reshape(second.shape)

    # metric square root and inverse square root for symmetrized shape
    # operators: the frame's SVD E = U S V^T diagonalizes g = E E^T = U S^2 U^T
    root = np.maximum(sv, 1e-150)[..., None, :]
    Ut = U.swapaxes(-1, -2)
    g_isqrt = (U / root) @ Ut
    g_sqrt = (U * root) @ Ut

    H = np.einsum("ij...k,r...k->r...ij", alpha, normal_basis)     # (p, *grid, D, D)
    shape_sym = g_isqrt @ H @ g_isqrt

    return NumericJet(grid=g, metric=metric, normal_proj=normal_proj, alpha=alpha,
                      shape_sym=shape_sym, normal_basis=normal_basis,
                      g_isqrt=g_isqrt, g_sqrt=g_sqrt, interior=interior)


def normal_curvature_residual(jet: NumericJet) -> float:
    """Flat-normal-bundle estimate: max commutator of shape operators
    (Ricci equation: R-perp = 0 iff all shape operators commute)."""
    S = jet.shape_sym[:, jet.interior]                 # (p, n, D, D)
    p = S.shape[0]
    worst = 0.0
    for r in range(p):
        for q in range(r + 1, p):
            comm = S[r] @ S[q] - S[q] @ S[r]
            worst = max(worst, np.abs(comm).max())
    return float(worst)


def extract_principal_normals(s: ImmersionSample,
                              jet: NumericJet | None = None) -> PrincipalData:
    """Simultaneous diagonalization of the shape operators into k classes.

    The normal bundle must be flat: NotProper is raised when the largest
    shape-operator commutator exceeds _FLAT_GATE * max(scale, 1), where
    scale is the largest shape-operator entry.  At every valid node the D
    candidate normals are grouped by single linkage at distance
    10 * _ETA_TOL * scale.  The dominant grouping (most nodes; on a tie
    the one met first in lexicographic node order) fixes k and the
    multiplicities.  Borderline nodes (another grouping) are masked rather
    than guessed, and a NotProper error is raised only when no grouping covers
    half of the valid nodes.

    Classes are tracked across nodes so the eta fields are smooth.  A masked
    node's reference is its predecessor idx - e_d along the first axis d whose
    predecessor is masked; a node without one refers to the first masked node
    in lexicographic order, which keeps the grouping's own class order.  Each
    node takes the class order that minimizes sum_j |eta_j - ref_j|, the first
    such permutation in itertools order on a tie.  A reference always lies
    earlier in lexicographic order, so nodes are matched in rounds of equal
    depth along their reference chains.
    """
    jet = numeric_jet(s) if jet is None else jet
    return _principal_normals(s, jet, normal_curvature_residual(jet))


def _principal_normals(s: ImmersionSample, jet: NumericJet, flat_res: float) -> PrincipalData:
    """`extract_principal_normals` given the jet's normal_curvature_residual."""
    g = jet.grid
    D = g.ndim
    p = jet.codim
    N = s.ambient_dim
    shape_scale = max(np.abs(jet.shape_sym[:, jet.interior]).max(), 1e-30)
    if flat_res > _FLAT_GATE * max(shape_scale, 1.0):
        raise NotProper(f"normal bundle not numerically flat (commutator {flat_res:.2e})")
    eta_tol = _ETA_TOL * shape_scale

    rng = np.random.default_rng(_RNG_SEED)
    c = rng.normal(size=p)
    M = np.einsum("r,r...ij->...ij", c, jet.shape_sym)
    _, Q = np.linalg.eigh(M)                           # Q columns: hat-e_alpha
    # principal normal of each eigendirection: sum_r <S_r e, e> nu_r
    diag = ((jet.shape_sym @ Q) * Q).sum(-2)           # (p, *grid, D)
    eta_dir = np.einsum("r...a,r...k->...ak", diag, jet.normal_basis)   # (*grid, D, N)
    del M, diag

    # classify every valid node (boundary rows included) so the eta fields
    # support full stencils; reporting still happens on the interior
    valid = s.valid()
    cand = eta_dir[valid]                              # (n, D, N), lexicographic
    del eta_dir
    if not len(cand):
        raise NotProper("no usable interior nodes")
    # single-linkage groups: each candidate is labelled by the smallest index
    # of its component (transitive closure by repeated squaring of 0/1 matrices)
    linked = np.tile(np.eye(D, dtype=np.uint8), (len(cand), 1, 1))
    for a, b in itertools.combinations(range(D), 2):
        linked[:, a, b] = linked[:, b, a] = (
            np.linalg.norm(cand[:, a] - cand[:, b], axis=-1) < eta_tol * 10)
    for _ in range(D.bit_length()):
        linked = np.minimum(linked @ linked, 1)
    labels = linked.argmax(axis=-1)
    del linked
    key = labels @ D ** np.arange(D)                   # one integer per grouping
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    top = first[counts == counts.max()].min()
    pattern = labels[top]
    hit = key == key[top]
    frac = int(hit.sum()) / len(cand)
    mask = np.zeros(g.shape, dtype=bool)
    mask[valid] = hit
    if frac < 0.5:
        raise NotProper(f"principal-normal count varies (dominant pattern on {frac:.0%} of nodes)")

    groups = [np.flatnonzero(pattern == a) for a in np.unique(pattern)]
    k = len(groups)
    mult = tuple(len(grp) for grp in groups)
    nodes = np.flatnonzero(mask)                       # lexicographic order
    eta = np.zeros((k,) + g.shape + (N,))
    eta_f = eta.reshape(k, -1, N)
    cand = cand[hit]
    for a, grp in enumerate(groups):
        eta_f[a, nodes] = cand[:, grp].mean(axis=1)
    del cand

    # reference of each masked node (slot 0, the first masked node, is the root)
    coords = np.unravel_index(nodes, g.shape)
    slot = np.full(mask.size, -1)
    slot[nodes] = np.arange(len(nodes))
    parent = np.full(len(nodes), -1)
    for d in range(D):
        stride = int(np.prod(g.shape[d + 1:], dtype=int))
        pred = np.where(coords[d] > 0, slot[nodes - stride], -1)
        parent = np.where(parent < 0, pred, parent)
    parent[parent < 0] = 0

    # track classes against the reference so smooth eta fields survive
    # arbitrarily long patches (frames may rotate fully); gap[i, a, b] is the
    # distance from group a at node i to group b at its reference, so a
    # node's costs need only its reference's class order
    vals = eta_f[:, nodes]                             # (k, n, N), group order
    gap = np.empty((len(nodes), k, k))
    for a in range(k):
        for b in range(k):
            diff = vals[a] - vals[b, parent]
            gap[:, a, b] = np.sqrt((diff[:, None] @ diff[..., None])[:, 0, 0])
    perms = np.array(list(itertools.permutations(range(k))))
    choice = np.zeros(len(nodes), dtype=int)           # index into perms
    level = np.zeros(len(nodes), dtype=bool)
    level[0] = True
    while True:
        level = level[parent]
        level[0] = False
        sel = np.flatnonzero(level)
        if not len(sel):
            break
        ref = perms[choice[parent[sel]]]               # (m, k)
        cost = sum(gap[sel, perms[:, j, None], ref[:, j]] for j in range(k))  # (k!, m)
        choice[sel] = np.where(np.isnan(cost), np.inf, cost).argmin(axis=0)
    order = perms[choice]                              # class j takes group order[:, j]
    eta_f[:, nodes] = vals[order.T, np.arange(len(nodes))]
    del vals, gap

    proj = np.zeros((k,) + g.shape + (D, D))
    proj_f = proj.reshape(k, -1, D, D)
    Q_f = Q.reshape(-1, D, D)
    g_isqrt = jet.g_isqrt.reshape(-1, D, D)
    g_sqrt = jet.g_sqrt.reshape(-1, D, D)
    for j in range(k):
        for a, grp in enumerate(groups):
            at = nodes[order[:, j] == a]
            hat = Q_f[at][:, :, grp]                   # (m, D, mult)
            proj_f[j, at] = g_isqrt[at] @ (hat @ hat.swapaxes(-1, -2)) @ g_sqrt[at]
    return PrincipalData(eta=eta, multiplicities=mult, projectors=proj, mask=mask)


def _erode_mask(mask: np.ndarray, axis: int, width: int) -> np.ndarray:
    """Invalidate every node whose +-width window along axis touches an invalid node."""
    out = mask.copy()
    for off in range(-width, width + 1):
        if off == 0:
            continue
        shifted = np.ones_like(mask)
        n = mask.shape[axis]
        sl_src = [slice(None)] * mask.ndim
        sl_dst = [slice(None)] * mask.ndim
        sl_src[axis] = slice(max(off, 0), n + min(off, 0))
        sl_dst[axis] = slice(max(-off, 0), n + min(-off, 0))
        shifted[tuple(sl_dst)] = mask[tuple(sl_src)]
        out &= shifted
    return out


def _stencil_valid(grid: TensorGrid, interior: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Interior nodes whose fd stencils stay inside the valid node set.

    Checks that differentiate an already fd-derived field need four layers of
    margin: the outer two layers of the first derivative carry lower-order
    stencil error, and differentiating across the stencil-regime boundary
    would turn that into O(h) noise.  A node within _STENCIL_WIDTH of a
    masked node along any axis is invalid.  TooFewNodes is raised when no
    node is left.
    """
    valid = interior & grid.interior_mask(4)
    if not valid.any():
        valid = interior
    if mask is not None:
        er = mask.copy()
        for ax in range(grid.ndim):
            er = _erode_mask(er, ax, _STENCIL_WIDTH)
        valid = valid & er
        if not valid.any():
            valid = interior & er
    if not valid.any():
        raise TooFewNodes("no stencil-valid nodes left after masking")
    return valid


def _along_class(jet: NumericJet, Pj: np.ndarray, V: np.ndarray, valid: np.ndarray,
                 normal: bool = False) -> float:
    """Max over valid nodes and over the columns X of P_j g^{-1/2} (the
    chart components of a g-orthonormal eigenbundle frame) of |D_X V| / |X|_g
    for an ambient field V, with D_X V projected onto the normal space when
    `normal` is set."""
    g = jet.grid
    dV = np.stack([fd_axis(V, g.spacings[i], i, 1)[valid] for i in range(g.ndim)], axis=1)
    dirs = Pj[valid] @ jet.g_isqrt[valid]          # (n, D, D), columns X
    nX = np.sqrt(np.abs(((jet.metric[valid] @ dirs) * dirs).sum(-2)))    # (n, D)
    DXV = dirs.swapaxes(-1, -2) @ dV               # (n, D, N), one row per X
    if normal:
        DXV = DXV @ jet.normal_proj[valid].swapaxes(-1, -2)
    mag = np.linalg.norm(DXV, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mag = np.where(nX > 1e-8, mag / np.maximum(nX, 1e-300), 0.0)
    return float(mag.max())


def dupin_residual(s: ImmersionSample, pd: PrincipalData,
                   jet: NumericJet | None = None) -> np.ndarray:
    """Per-class max |normal-projected derivative of eta_j along its own
    eigenbundle| over valid interior nodes."""
    jet = numeric_jet(s) if jet is None else jet
    return _dupin(jet, pd, _stencil_valid(jet.grid, jet.interior, pd.mask))


def _dupin(jet: NumericJet, pd: PrincipalData, valid: np.ndarray) -> np.ndarray:
    return np.array([_along_class(jet, pd.projectors[j], pd.eta[j], valid, normal=True)
                     for j in range(pd.k)])


def conullity_integrability(s: ImmersionSample, pd: PrincipalData, j: int,
                            jet: NumericJet | None = None) -> dict:
    """Bracket test for the conullity of class j.

    Spanning fields are the conullity projections of the chart basis; the
    residual is the eigenbundle component of their Lie brackets (metric
    norm); the class is integrable when it is below _BRACKET_TOL times the
    bracket scale (at least 1).  The pairwise-independence
    sufficient condition (eta_i - eta_l vs eta_j - eta_l everywhere linearly
    independent) is reported alongside.
    """
    jet = numeric_jet(s) if jet is None else jet
    return _conullity(jet, pd, j, _stencil_valid(jet.grid, jet.interior, pd.mask))


def _conullity(jet: NumericJet, pd: PrincipalData, j: int, valid: np.ndarray) -> dict:
    g = jet.grid
    D = g.ndim
    Pj = pd.projectors[j]
    Qj = np.eye(D) - Pj                                    # conullity projector
    # spanning fields Y_a = Qj e_a (the columns of Qj); dQ[n, i, a, m] = d_m Y_a^i
    dQ = np.stack([fd_axis(Qj, g.spacings[m], m, 1)[valid] for m in range(D)], axis=-1)
    DY = dQ @ Qj[valid][:, None]                           # (n, i, b, a): (D_{Y_a} Y_b)^i
    a, b = np.triu_indices(D, 1)
    br = (DY[:, :, b, a] - DY[:, :, a, b]).swapaxes(-1, -2)   # (n, pairs, D): [Y_a, Y_b]
    G = jet.metric[valid]
    bad = br @ Pj[valid].swapaxes(-1, -2)                  # eigenbundle component
    worst = np.sqrt(np.abs(((bad @ G) * bad).sum(-1))).max(initial=0.0)
    scale = np.sqrt(np.abs(((br @ G) * br).sum(-1))).max(initial=0.0)
    # sufficient condition: differences to other classes pairwise independent
    eta = pd.eta[:, valid]
    others = [i for i in range(pd.k) if i != j]
    suff = np.inf
    for x, i in enumerate(others):
        for l in others[x + 1:]:
            di = eta[i] - eta[j]
            dl = eta[l] - eta[j]
            cross2 = (di**2).sum(-1) * (dl**2).sum(-1) - ((di * dl).sum(-1)) ** 2
            suff = min(suff, float(np.sqrt(np.maximum(cross2, 0.0)).min()))
    return {
        "class": j,
        "bracket_residual": float(worst),
        "bracket_scale": float(scale),
        "integrable": bool(worst < _BRACKET_TOL * max(1.0, scale)),
        "sufficient_independence": None if suff is np.inf else float(suff),
    }


def focal_constancy(s: ImmersionSample, pd: PrincipalData,
                    jet: NumericJet | None = None) -> np.ndarray:
    """Per-class spherical-leaf residual: the focal map f + eta_j/|eta_j|^2
    must be constant along the eigenbundle of a nonvanishing Dupin normal
    (its value is the leaf-sphere center).  Classes whose normal vanishes
    somewhere (below _ETA_FLOOR) report nan (their leaves are flats there)."""
    jet = numeric_jet(s) if jet is None else jet
    return _focal(s, jet, pd, _stencil_valid(jet.grid, jet.interior, pd.mask))


def _focal(s: ImmersionSample, jet: NumericJet, pd: PrincipalData, valid: np.ndarray) -> np.ndarray:
    out = np.full(pd.k, np.nan)
    for j in range(pd.k):
        nrm2 = (pd.eta[j] ** 2).sum(-1)
        if nrm2[valid].min() < _ETA_FLOOR**2:
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            F = s.positions + pd.eta[j] / nrm2[..., None]
        out[j] = _along_class(jet, pd.projectors[j], F, valid)
    return out


def sphere_leaf_check(result: NRibaucourResult) -> dict:
    """Leaf geometry of an N-Ribaucour result from its positions alone:
    per-base-node sphere fits of y -> f(u0, y).  The constancy of the leaf
    centres f + eta/|eta|^2 is `focal_constancy` (on extracted normals)."""
    g = result.grid
    Db = result.base.grid.ndim
    if min(g.shape[Db:]) < 5:
        raise TooFewNodes("need >= 5 nodes per leaf direction")
    base_shape = g.shape[:Db]
    clouds = result.sample.positions.reshape(
        (int(np.prod(base_shape)), -1, result.sample.ambient_dim))   # leaves in ndindex order
    res = _sphere_fit_batch(clouds)
    if res is None:
        # some leaf is flat, degenerate or of another span rank
        fits = [sphere_fit(cloud) for cloud in clouds]
        res = np.array([fit.residual for fit in fits])
        kinds = ["flat" if isinstance(fit, AffineFlat) else "sphere" for fit in fits]
    else:
        kinds = ["sphere"] * len(clouds)
    res = res.reshape(base_shape)
    kinds = np.array(kinds, dtype=object).reshape(base_shape)
    return {"max_fit_residual": float(res.max()), "kinds": kinds, "fit_residuals": res}


@dataclass
class DiagnosticsReport:
    """Structural diagnostics of a submanifold patch."""

    k: int
    multiplicities: tuple
    dupin_residuals: tuple
    normal_curvature: float
    conullity: tuple                  # per-class dicts from the bracket test
    dim_N1: int
    dim_Sf: int
    conformal_codim: int
    holonomic: bool
    masked_fraction: float
    spherical_leaf: tuple = ()        # per-class focal-map constancy (nan = flat leaves)
    spectra: dict = dc_field(default_factory=dict)
    checks: dict = dc_field(default_factory=dict)

    def rows(self):
        """CSV-ready rows: (diagnostic id, value, masked fraction)."""
        rows = [("k", self.k), ("dim_N1", self.dim_N1), ("dim_Sf", self.dim_Sf),
                ("conformal_codim", self.conformal_codim),
                ("normal_curvature", self.normal_curvature),
                ("holonomic", self.holonomic),
                ("masked_fraction", self.masked_fraction)]
        for j, r in enumerate(self.dupin_residuals):
            rows.append((f"dupin_residual_{j}", r))
        for j, r in enumerate(self.spherical_leaf):
            rows.append((f"spherical_leaf_{j}", r))
        for c in self.conullity:
            rows.append((f"conullity_integrable_{c['class']}", c["integrable"]))
        for name, ok in self.checks.items():
            rows.append((name, bool(ok)))
        return [(name, float(val), self.masked_fraction) for name, val in rows]

    def to_dict(self):
        return {
            "k": self.k,
            "multiplicities": list(self.multiplicities),
            "dupin_residuals": [float(x) for x in self.dupin_residuals],
            "normal_curvature": self.normal_curvature,
            "conullity": [
                {kk: (vv if not isinstance(vv, (np.floating, np.bool_)) else float(vv))
                 for kk, vv in c.items()} for c in self.conullity
            ],
            "dim_N1": self.dim_N1,
            "dim_Sf": self.dim_Sf,
            "conformal_codim": self.conformal_codim,
            "holonomic": self.holonomic,
            "masked_fraction": self.masked_fraction,
            "spherical_leaf": [float(x) for x in self.spherical_leaf],
            "spectra": {kk: [float(x) for x in vv] for kk, vv in self.spectra.items()},
            "checks": {kk: bool(vv) for kk, vv in self.checks.items()},
        }


def _span_rank(vectors: np.ndarray, valid: np.ndarray, gap: float):
    """Numerical rank of a family of ambient vectors over valid nodes.

    vectors: (m, *grid, N).  Returns (max node rank, spectrum of the worst
    node attaining it).  Rank uses singular values > gap * sigma_max.
    """
    m = vectors.shape[0]
    V = np.moveaxis(vectors, 0, -2)[valid]     # (nodes, m, N)
    sv = np.linalg.svd(V, compute_uv=False)    # (nodes, min(m,N))
    smax = np.maximum(sv[:, :1], 1e-300)
    ranks = (sv > gap * smax).sum(axis=1)
    worst = int(ranks.max()) if ranks.size else 0
    at = int(np.argmax(ranks)) if ranks.size else 0
    constant = bool(ranks.size and ranks.min() == ranks.max())
    return worst, sv[at], constant


def _sf_span(pd: PrincipalData, valid: np.ndarray, gap: float):
    """dim S_f, S_f = span{eta_i - eta_j}, as `_span_rank` reports it; the
    differences to class 0 span the same space."""
    if pd.k == 1:
        return 0, np.zeros(0), True
    diffs = np.stack([pd.eta[i] - pd.eta[0] for i in range(1, pd.k)])
    return _span_rank(diffs, valid, gap=gap)


def conformal_codim(s: ImmersionSample) -> int:
    """Conformal codimension estimate dim S_f from raw positions alone, the
    `conformal_codim` of a default `sf_report` without its other checks."""
    jet = numeric_jet(s)
    pd = extract_principal_normals(s, jet=jet)
    valid = jet.interior if pd.mask is None else (jet.interior & pd.mask)
    return _sf_span(pd, valid, _RANK_GAP)[0]


def sf_report(s: ImmersionSample, pd: PrincipalData | None = None,
              jet: NumericJet | None = None, weakly_irreducible: bool = False) -> DiagnosticsReport:
    """Full diagnostics: principal-normal structure, difference-span and
    first-normal-space dimensions, conformal codimension estimate and the
    holonomicity verdict from per-class bracket tests.

    weakly_irreducible states that the submanifold is weakly irreducible,
    which the oracle cannot decide from positions; it adds the bound
    dim S_f <= 2k/3 - 1 to the checks."""
    jet = numeric_jet(s) if jet is None else jet
    ncurv = normal_curvature_residual(jet)
    if pd is None:
        pd = _principal_normals(s, jet, ncurv)
    valid = jet.interior if pd.mask is None else (jet.interior & pd.mask)
    stencil_valid = _stencil_valid(jet.grid, jet.interior, pd.mask)
    k = pd.k

    dupin = _dupin(jet, pd, stencil_valid)
    dim_sf, sf_spec, sf_const = _sf_span(pd, valid, _RANK_GAP)

    # N_1 = span of all alpha(X, Y)
    D = jet.grid.ndim
    alpha_list = [jet.alpha[i, j] for i in range(D) for j in range(i, D)]
    dim_n1, n1_spec, n1_const = _span_rank(np.stack(alpha_list), valid, gap=_RANK_GAP)

    conull = tuple(_conullity(jet, pd, j, stencil_valid) for j in range(k))
    holonomic = all(c["integrable"] for c in conull)
    leaves = _focal(s, jet, pd, stencil_valid)

    checks = {
        "c_le_k_minus_1": dim_sf <= k - 1,
        "n1_bound": (dim_n1 - 1) <= dim_sf <= dim_n1,
        # 1-regularity is assumed per patch; a rank jump means the patch
        # straddles a stratum boundary and should be re-masked
        "N1_rank_constant": n1_const,
        "Sf_rank_constant": sf_const,
    }
    if dim_sf == k - 1:
        checks["holonomic_when_c_eq_k_minus_1"] = holonomic
    if weakly_irreducible:
        checks["weakly_irreducible_codim_bound"] = dim_sf <= (2.0 / 3.0) * k - 1

    return DiagnosticsReport(
        k=k,
        multiplicities=pd.multiplicities,
        dupin_residuals=tuple(float(x) for x in dupin),
        normal_curvature=ncurv,
        conullity=conull,
        dim_N1=dim_n1,
        dim_Sf=dim_sf,
        conformal_codim=dim_sf,
        holonomic=holonomic,
        masked_fraction=float(1.0 - valid.mean()),
        spherical_leaf=tuple(float(x) for x in leaves),
        spectra={"Sf": sf_spec, "N1": n1_spec},
        checks=checks,
    )


def dupin_tensor_space(t: Triple, substeps: int = 8) -> dict:
    """Dimension of the space of net-adapted Dupin tensors.

    Integrates the tensor system from the k unit seeds plus _PROBE_SEEDS
    random probes, stacks the solutions and reports the singular-value
    spectrum: the rank must equal k (a gap above _GAP_REQUIRED) and any
    probe solution must lie in the unit-seed span.
    """
    from .integrable import _bounded, _sweep_tensor

    k = t.n_classes
    rng = np.random.default_rng(_RNG_SEED + 1)
    seeds = np.concatenate([np.eye(k), rng.normal(size=(_PROBE_SEEDS, k))])
    B, _ = _sweep_tensor(t, seeds.T, substeps)        # one sweep, every seed a column
    if not _bounded(B[:k], axis=1).all():
        raise RankDeficient("tensor-system integration masked nodes (blow-up)")
    A = B.reshape(len(seeds), -1)
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[k - 1] <= 0:
        raise RankDeficient("unit-seed solutions are numerically dependent")
    gap = sv[k - 1] / sv[k] if len(sv) > k and sv[k] > 0 else np.inf
    basis = A[:k]
    span_res = 0.0
    for vec in A[k:]:
        coef, *_ = np.linalg.lstsq(basis.T, vec, rcond=None)
        span_res = max(span_res, np.abs(basis.T @ coef - vec).max() / max(np.abs(vec).max(), 1e-30))
    return {
        "dimension": int(k),
        "singular_values": sv,
        "gap": float(gap),
        "rank_equals_k": bool(gap > _GAP_REQUIRED),
        "probe_span_residual": float(span_res),
        "basis": basis,
    }
