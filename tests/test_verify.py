import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupin.errors import DegenerateCloud, NotProper, TooFewNodes
from dupin.net import ImmersionSample, ParallelNormalSubbundle, PrincipalData
from dupin.numerics import AffineFlat, TensorGrid, _joint_eigh, _sum_last, fd_axis, sphere_fit
from dupin.seeds import (
    circle_seed,
    cylinder_seed,
    ellipsoid_patch,
    flat_seed,
    sphere_patch,
    torus_seed,
)
import dupin.verify as verify
from dupin.verify import (
    NumericJet,
    _linkage_labels,
    _second,
    _slopes,
    _span_rank,
    _stencil_valid,
    _track,
    conullity_integrability,
    dupin_residual,
    dupin_tensor_space,
    extract_principal_normals,
    focal_constancy,
    normal_curvature_residual,
    numeric_jet,
    sf_report,
    sphere_leaf_check,
)


@pytest.fixture(scope="module")
def torus_v():
    return torus_seed(R=1.0, r=0.3, shape=(41, 41), u1_range=(0.1, 0.9), u2_range=(0.2, 1.0))


def clifford_product(a=1.0, b=0.6, n=31):
    """Product of two circles in R^4: a 2-Dupin surface with flat normal bundle."""
    g = TensorGrid((n, n), (0.8 / (n - 1), 0.8 / (n - 1)), (0.1, 0.2))
    U, V = g.meshgrid()
    pos = np.stack([a * np.cos(U), a * np.sin(U), b * np.cos(V), b * np.sin(V)], axis=-1)
    return ImmersionSample(g, pos)


def _reference_finite(pos):
    """The positions with non-finite values made NaN: the stencils' input."""
    return np.where(np.isfinite(pos), pos, np.nan)


def _formed(g):
    """The box of nodes `numeric_jet` forms, by its definition: every axis
    with at least 13 nodes (so that a whole 9^D wild-node window fits
    inside) gives the nodes two layers in, which hold every node the
    checks read; otherwise the whole grid."""
    lay = 2 if min(g.shape) >= 13 else 0
    return tuple(slice(lay, n - lay) for n in g.shape)


def _outside(a, box, lead=0):
    """The values of a node field a (lead axes, the grid's axes, value axes)
    at the nodes outside box, one row per node."""
    out = np.ones(a.shape[lead:lead + len(box)], dtype=bool)
    out[box] = False
    return a[(slice(None),) * lead + (out,)]


# leading axes before the grid's of the jet's fields
_LEAD = {"shape_sym": 1, "normal_basis": 1}


def _reference_numeric_jet(s):
    """`numeric_jet` as whole-grid einsums, the definition of the matmul
    kernels: the same positions, stencils, Cholesky frame (here
    LAPACK's factor), tangent projector and Gram-Schmidt pivot rule.
    Returns the jet's stored fields and the interior by name."""
    g = s.grid
    D = g.ndim
    pos = _reference_finite(s.positions)
    N = pos.shape[-1]
    first = np.stack([fd_axis(pos, g.spacings[i], i, 1) for i in range(D)])
    second = np.empty((D, D) + g.shape + (N,))
    for i in range(D):
        second[i, i] = fd_axis(pos, g.spacings[i], i, 2)
        for j in range(i + 1, D):
            second[i, j] = second[j, i] = fd_axis(first[i], g.spacings[j], j, 1)
    metric = np.einsum("i...k,j...k->...ij", first, first)
    coframe = np.linalg.cholesky(metric).swapaxes(-1, -2)          # L^T
    frame = np.linalg.inv(coframe)                                 # E = L^{-T}
    tangent_basis = np.einsum("...ji,j...k->...ik", frame, first)
    normal_proj = np.eye(N) - np.einsum("...ak,...al->...kl", tangent_basis, tangent_basis)
    # pivoted Gram-Schmidt on the rows: the first with at least half the largest squared norm
    W, normal_basis = normal_proj.copy(), []
    for _ in range(N - D):
        sq = np.einsum("...kl,...kl->...k", W, W)
        at = np.argmax(sq >= 0.5 * sq.max(axis=-1, keepdims=True), axis=-1)
        row = np.take_along_axis(W, at[..., None, None], axis=-2)[..., 0, :]
        nu = row / np.sqrt(np.take_along_axis(sq, at[..., None], axis=-1))
        normal_basis.append(nu)
        W = W - np.einsum("...kl,...l,...m->...km", W, nu, nu)
    normal_basis = np.stack(normal_basis)
    alpha = np.einsum("...kl,ij...l->ij...k", normal_proj, second)
    H = np.einsum("ij...k,r...k->r...ij", alpha, normal_basis)
    shape_sym = np.einsum("...ai,r...ab,...bj->r...ij", frame, H, frame)
    return {"metric": metric, "frame": frame, "shape_sym": shape_sym, "normal_basis": normal_basis,
            "interior": g.interior_mask(2) & s.valid()}


def _reference_cluster_pattern(dist, tol):
    """Group indices 0..n-1 by the adjacency dist < tol (single linkage)."""
    n = dist.shape[0]
    groups = []
    seen = [False] * n
    for a in range(n):
        if seen[a]:
            continue
        stack, cluster = [a], []
        seen[a] = True
        while stack:
            x = stack.pop()
            cluster.append(x)
            for b in range(n):
                if not seen[b] and dist[x, b] < tol:
                    seen[b] = True
                    stack.append(b)
        groups.append(tuple(sorted(cluster)))
    return tuple(sorted(groups))


def _reference_extract_principal_normals(s, jet):
    """The per-node extraction loop that the batched implementation replaced,
    kept as the definition of its result: one cluster pattern per node of
    the region the checks read, then class tracking node by node in
    lexicographic order.  Returns the principal data and, frozen, the class
    projectors the extraction used to store: E (Q_j Q_j^T) E^{-1} per node
    and class, Q_j the class's eigenvector columns in the orthonormal frame.

    The region, by its definition: the derived checks run at the nodes four
    layers in and their deep stencils reach two nodes, so on a grid whose
    every axis has at least 9 nodes they read the nodes two layers in; a
    smaller grid has no node four layers in, its checks run at the interior
    itself and it is read whole.  The Jacobi prelude runs on the whole grid,
    extraction's on the region alone: each family's result is the one it
    gets alone, whichever families share its block."""
    g = jet.grid
    D = g.ndim
    N = s.ambient_dim
    shape_scale = max(np.linalg.norm(jet.shape_sym[:, jet.interior], axis=0).max(), 1e-30)
    eta_tol = max(1e-5 * shape_scale, 1e-9 * shape_scale)
    lay = 2 if all(n >= 9 for n in g.shape) else 0
    region = tuple(slice(lay, n - lay) for n in g.shape)
    read = np.zeros(g.shape, dtype=bool)
    read[region] = True

    # eigendirections in the order of the Jacobi sweeps, then by ascending |eta|, stable on ties
    diag, Q = _joint_eigh(jet.shape_sym, lambda w: np.zeros(w.shape[1:]))
    order = np.argsort((diag**2).sum(0), axis=-1, kind="stable")
    diag = np.take_along_axis(diag, order[None], axis=-1)
    Q = np.take_along_axis(Q, order[..., None, :], axis=-1)
    eta_dir = np.einsum("r...a,r...k->...ak", diag, jet.normal_basis)
    dist = np.linalg.norm(eta_dir[..., :, None, :] - eta_dir[..., None, :, :], axis=-1)

    patterns = {}
    for idx in np.argwhere(s.valid() & read):
        pat = _reference_cluster_pattern(dist[tuple(idx)], eta_tol * 10)
        patterns.setdefault(pat, []).append(tuple(idx))
    pattern = max(patterns, key=lambda k: len(patterns[k]))
    mask = np.zeros(g.shape, dtype=bool)
    for idx in patterns[pattern]:
        mask[idx] = True

    k = len(pattern)
    mult = tuple(len(grp) for grp in pattern)
    eta = np.zeros((k,) + g.shape + (N,))
    frames = np.zeros(g.shape + (D, D))
    order = np.zeros(g.shape + (k,), dtype=np.int8)
    proj = np.zeros((k,) + g.shape + (D, D))
    perms = list(itertools.permutations(range(k)))
    done = {}                  # tracked node -> (normals in group order, class order)
    root = None
    for idx in sorted(map(tuple, np.argwhere(mask))):
        vals = np.stack([eta_dir[idx][list(grp)].mean(axis=0) for grp in pattern])
        ref = None
        for d in range(D):
            if idx[d] > 0:
                nb = idx[:d] + (idx[d] - 1,) + idx[d + 1:]
                if nb in done:
                    ref = nb
                    break
        if ref is None:
            ref = root
        if ref is None:
            best = tuple(range(k))
        else:
            # the matching sigma (reference group b -> group sigma[b] here) of
            # least summed distance, the first in itertools order on a tie;
            # class j then takes the group sigma maps the reference's class j to
            ref_vals, ref_order = done[ref]
            costs = [sum(np.linalg.norm(vals[pm[b]] - ref_vals[b]) for b in range(k)) for pm in perms]
            sigma = perms[int(np.argmin(np.where(np.isnan(costs), np.inf, costs)))]
            best = tuple(sigma[c] for c in ref_order)
        # the eigenframe's columns: each class's group in class order
        for j in range(k):
            eta[j][idx] = vals[best[j]]
            hat = Q[idx][:, list(pattern[best[j]])]
            proj[(j,) + idx] = jet.frame[idx] @ (hat @ hat.T) @ np.linalg.inv(jet.frame[idx])
        frames[idx] = jet.frame[idx] @ Q[idx][:, [b for j in range(k) for b in pattern[best[j]]]]
        order[idx] = best
        done[idx] = (vals, best)
        if root is None:
            root = idx
    return PrincipalData(eta=eta, multiplicities=mult, mask=mask, eigenframe=frames, order=order), proj


def _with_leaf(result, iu, change):
    """result with the leaf through base node iu replaced by change(leaf)."""
    pos = result.sample.positions.copy()
    pos[iu] = change(pos[iu])
    return dataclasses.replace(result, sample=dataclasses.replace(result.sample, positions=pos))


def _holed(s):
    """s without a full row, a block and a corner: nodes below the row refer
    along the other axis, and nodes with no masked predecessor refer to the
    first masked node."""
    mask = np.ones(s.grid.shape, dtype=bool)
    mask[0, 0] = False
    mask[6, :] = False
    mask[11:15, 9:13] = False
    return dataclasses.replace(s, mask=mask)


def _diagonal_jet(diag, g, mask=None):
    """A sample and a jet whose p shape operators are the commuting diagonal
    matrices diag[r] (p, *grid, D) against a constant normal frame."""
    p, D = diag.shape[0], g.ndim
    shape_sym = np.zeros((p,) + g.shape + (D, D))
    shape_sym[..., np.arange(D), np.arange(D)] = diag
    normal_basis = np.zeros((p,) + g.shape + (D + p,))
    for r in range(p):
        normal_basis[r, ..., D + r] = 1.0
    eye = np.broadcast_to(np.eye(D), g.shape + (D, D))
    jet = NumericJet(grid=g, metric=None, frame=eye, shape_sym=shape_sym, normal_basis=normal_basis,
                     interior=np.ones(g.shape, dtype=bool))
    return ImmersionSample(g, np.zeros(g.shape + (D + p,)), mask=mask), jet


def _projectors(pd):
    """The class projectors (k, *grid, D, D) of principal data, zero outside
    its mask: `verify._class_projectors` of its eigenframe R and R^{-1} by
    LAPACK (the derived checks form R^{-1} from the metric)."""
    R = pd.eigenframe
    C = np.zeros(R.shape)
    C[pd.mask] = np.linalg.inv(R[pd.mask])
    return verify._class_projectors(R, C, pd.multiplicities, pd.order, range(pd.k))


def _assert_same_as_reference(pd, s, jet):
    # the stored state bit for bit; the projectors formed from it within
    # 5e-14 of the largest of the frozen chain's (measured up to 1.8e-15)
    ref, proj = _reference_extract_principal_normals(s, jet)
    assert pd.multiplicities == ref.multiplicities
    assert np.array_equal(pd.mask, ref.mask)
    assert np.array_equal(pd.eta, ref.eta)
    assert np.array_equal(pd.eigenframe, ref.eigenframe) and np.array_equal(pd.order, ref.order)
    assert np.abs(_projectors(pd) - proj).max() <= 5e-14 * np.abs(proj).max()


class TestNumericJet:
    def test_flat_plane_alpha_zero(self, jet_alpha):
        s = flat_seed(shape=(11, 11))
        jet = numeric_jet(s)
        assert np.abs(jet_alpha(jet)[..., jet.interior, :]).max() < 1e-12

    def test_unit_sphere_second_form(self, jet_alpha):
        s = sphere_patch(radius=1.0, shape=(121, 121), u_range=(0.0, 1.2), v_range=(-0.5, 0.7))
        jet = numeric_jet(s)
        alpha = jet_alpha(jet)
        # alpha(X, X) = -(outward normal) for unit X: diagonal entries of
        # alpha over metric must equal -position direction on the unit sphere
        nrm = s.positions / np.linalg.norm(s.positions, axis=-1)[..., None]
        for i in range(2):
            kap = alpha[i, i] / jet.metric[..., i, i][..., None]
            err = np.abs(kap + nrm)[jet.interior].max()
            assert err < 1e-6

    @pytest.mark.parametrize("case", ["torus_patch", "recursion_step1", "recursion_step2",
                                      "sphere", "holed_clifford_product"])
    def test_matmul_kernels_match_einsum_reference(self, case, request):
        if case == "sphere":
            s = sphere_patch(radius=1.0, shape=(41, 41))
        elif case == "holed_clifford_product":
            s = _holed(clifford_product())
        elif case.startswith("recursion"):
            s = request.getfixturevalue(case).sample
        else:
            s = request.getfixturevalue(case)
        # the stored fields at the nodes the jet forms (the reference forms
        # every node), NaN at every other node
        jet, ref = numeric_jet(s), _reference_numeric_jet(s)
        assert jet.grid == s.grid
        assert np.array_equal(jet.interior, ref["interior"])
        box = _formed(s.grid)
        for name in ("metric", "frame", "shape_sym", "normal_basis"):
            new, old, at = getattr(jet, name), ref[name], (slice(None),) * _LEAD.get(name, 0) + box
            assert np.abs(new[at] - old[at]).max() <= 1e-13 * np.abs(old[at]).max(), name
            assert np.isnan(_outside(new, box, _LEAD.get(name, 0))).all(), name

    @pytest.mark.parametrize("D", [1, 2, 3, 4])
    def test_cholesky_frame_is_lapack_factor(self, D):
        # the closed form is LAPACK's Cholesky factor; a zero or negative
        # pivot gives NaN
        rng = np.random.default_rng(D)
        X = rng.normal(size=(40, D, D + 2)) * rng.uniform(1e-2, 1e2, (40, 1, 1))
        metric = X @ X.swapaxes(-1, -2)
        metric[0], metric[1] = 0.0, -np.eye(D)
        frame, coframe = verify._cholesky_frame(metric)
        assert np.isnan(frame[:2]).any(axis=(-2, -1)).all() and np.isnan(coframe[:2]).any(axis=(-2, -1)).all()
        frame, coframe, metric = frame[2:], coframe[2:], metric[2:]
        L = np.linalg.cholesky(metric)
        size = np.sqrt(np.linalg.norm(metric, axis=(-2, -1)))[:, None, None]
        assert (np.abs(coframe - L.swapaxes(-1, -2)) <= 1e-14 * size).all()
        assert np.array_equal(frame, np.triu(frame)) and np.array_equal(coframe, np.triu(coframe))
        assert np.abs(frame.swapaxes(-1, -2) @ metric @ frame - np.eye(D)).max() <= 1e-13
        assert np.abs(coframe @ frame - np.eye(D)).max() <= 1e-14

    def test_degenerate_metric_leaves_the_interior(self):
        # a strip of columns collapsed onto the origin: the chart derivative
        # along axis 0 vanishes there, the metric's first pivot is 0 and the
        # frame NaN, so those nodes are not interior (no clamped root).  The
        # jet forms rows 2..12 of this 15 x 15 grid
        g = TensorGrid((15, 15), (0.1, 0.1))
        U, V = g.meshgrid()
        pos = np.stack([U, V, 0.3 * U * U + 0.2 * V * V], axis=-1)
        pos[:, 8:13] = 0.0
        jet = numeric_jet(ImmersionSample(g, pos))
        assert (jet.metric[2:13, 8:13, 0, 0] == 0.0).all() and np.isnan(jet.frame[2:13, 8:13]).any(axis=(-2, -1)).all()
        assert not jet.interior[:, 8:13].any() and jet.interior[2:13, 2:8].all()

    def test_cached_forms_match_oracle(self, torus_v, jet_alpha):
        jet = numeric_jet(torus_v)
        alpha = jet_alpha(jet)
        for i in range(2):
            kap_fd = (alpha[i, i] * torus_v.normals[0]).sum(-1) / jet.metric[..., i, i]
            err = np.abs(kap_fd - torus_v.sff[i, 0])[jet.interior].max()
            assert err < 1e-6

    def test_peak_memory_beyond_its_result(self, recursion_step2):
        # H is built in slabs of axis-0 rows, so neither the second
        # derivatives nor their normal projection exists for the whole grid:
        # at its peak the call holds less than one whole-grid alpha (D, D,
        # *grid, N) besides the jet it returns
        s = recursion_step2.sample
        tracemalloc.start()
        try:
            jet = numeric_jet(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in vars(jet).values() if isinstance(a, np.ndarray))
        assert peak - kept <= 8 * s.grid.ndim**2 * s.grid.size * s.ambient_dim

    @pytest.mark.parametrize("case", ["torus_patch", "recursion_step1", "recursion_step2", "sphere",
                                      "holed_clifford_product"])
    def test_properties_are_the_parent_fields(self, case, request, jet_alpha):
        # the coframe, normal projector, H and alpha were stored fields, then
        # properties; now they follow from the stored fields.  Against frozen
        # copies of the parent's whole-grid formulas at the nodes the jet
        # forms: sum_r nu_r nu_r^T is the projector I - T^T T, and H and
        # alpha from L S L^T are the second derivatives contracted with the
        # normal basis and projected onto the normal space, each within
        # 1e-14 of its largest entry (measured up to 8.9e-16); the coframe
        # is within 1e-14 |g|^(1/2) of LAPACK's Cholesky factor L^T
        if case == "sphere":
            s = sphere_patch(radius=1.0, shape=(41, 41))
        elif case == "holed_clifford_product":
            s = _holed(clifford_product())
        else:
            s = request.getfixturevalue(case)
            s = s if isinstance(s, ImmersionSample) else s.sample
        jet = numeric_jet(s)
        g, D, N = s.grid, s.grid.ndim, s.ambient_dim
        pos = _reference_finite(s.positions)
        _, second, first = _whole_grid_alpha(g, pos, np.eye(N))
        T = jet.frame.swapaxes(-1, -2) @ first.transpose(tuple(range(1, D + 1)) + (0, D + 1))
        normal_proj = T.swapaxes(-1, -2).copy() @ T
        np.subtract(np.eye(N), normal_proj, out=normal_proj)
        alpha = jet_alpha(jet)
        pairs = [(np.einsum("r...k,r...l->...kl", jet.normal_basis, jet.normal_basis), normal_proj, 0),
                 (np.einsum("ij...k,r...k->r...ij", alpha, jet.normal_basis),
                  np.einsum("ij...k,r...k->r...ij", second, jet.normal_basis), 1),
                 (alpha, _whole_grid_alpha(g, pos, normal_proj)[0], 2)]
        box = _formed(g)
        for new, old, lead in pairs:
            at = (slice(None),) * lead + box
            assert np.abs(new[at] - old[at]).max() <= 1e-14 * np.abs(old[at]).max(), lead
        size = np.sqrt(np.linalg.norm(jet.metric[box], axis=(-2, -1)))[..., None, None]
        coframe = verify._cholesky_frame(jet.metric)[1]
        assert (np.abs(coframe[box] - np.linalg.cholesky(jet.metric[box]).swapaxes(-1, -2)) <= 1e-14 * size).all()

    def test_jet_and_principal_data_keep_their_degrees_of_freedom(self, recursion_step2):
        # per node the jet keeps the metric, the frame, p shape operators, p
        # normal vectors and the interior flag (249 B at D = 3, N = 4), and
        # no reference to the sample's positions; the extraction keeps k normals,
        # one eigenframe, the class order and the mask (172 B at k = 3)
        s = recursion_step2.sample
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        n, D, N, k = s.grid.size, s.grid.ndim, s.ambient_dim, pd.k
        p = N - D
        arrays = {name: a for name, a in vars(jet).items() if isinstance(a, np.ndarray)}
        assert arrays.keys() == {"metric", "frame", "shape_sym", "normal_basis", "interior"}
        kept = sum(a.nbytes for a in arrays.values())
        assert kept == n * (8 * (2 * D * D + p * D * D + p * N) + 1) == n * 249
        arrays = {name: a for name, a in vars(pd).items() if isinstance(a, np.ndarray)}
        assert arrays.keys() == {"eta", "mask", "eigenframe", "order"}
        assert sum(a.nbytes for a in arrays.values()) == n * (8 * (k * N + D * D) + k + 1) == n * 172

    def test_peak_memory_of_extraction_and_report(self, recursion_step2):
        # extraction and the rest of sf_report on a held jet peak at 5.45 MiB
        # of traced allocations (the parent: 6.35 MiB, with its stored class
        # projectors); the bound is the measured peak plus 6 %
        s = recursion_step2.sample
        jet = numeric_jet(s)
        tracemalloc.start()
        try:
            pd = extract_principal_normals(s, jet=jet)
            sf_report(s, pd=pd, jet=jet)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.8 * 2**20


def _symmetric_root_jet(s, jet_alpha):
    """`numeric_jet(s)` and the same forms in the frame of the metric's
    symmetric inverse square root g^{-1/2} (LAPACK eigenpairs), the frame
    the oracle took before its Cholesky frame: any g-orthonormal frame
    serves.  The second frame is formed where the jet is, NaN elsewhere;
    H comes from the jet's stored fields."""
    jet = numeric_jet(s)
    box = _formed(s.grid)
    w, Q = np.linalg.eigh(jet.metric[box])
    frame = np.full(jet.frame.shape, np.nan)
    frame[box] = (Q / np.sqrt(w)[..., None, :]) @ Q.swapaxes(-1, -2)
    H = np.einsum("ij...k,r...k->r...ij", jet_alpha(jet), jet.normal_basis)
    return jet, dataclasses.replace(jet, frame=frame, shape_sym=frame @ H @ frame)


@pytest.mark.parametrize("case", ["torus_patch", "recursion_step1", "recursion_step2", "sphere",
                                  "holed_clifford_product"])
def test_outputs_do_not_depend_on_the_tangent_frame(case, request, jet_alpha):
    # shape operators in two orthonormal frames are orthogonally similar:
    # every discrete output is the same, eta and the projectors agree to
    # 5e-14 relative (measured up to 7e-15) and the Dupin residuals of
    # multiplicity-1 classes to 1e-11 (measured up to 2.3e-12, on 1.1e-6)
    if case == "sphere":
        s = sphere_patch(radius=1.0, shape=(41, 41))
    elif case == "holed_clifford_product":
        s = _holed(clifford_product())
    else:
        s = request.getfixturevalue(case)
        s = s if isinstance(s, ImmersionSample) else s.sample
    jet, root_jet = _symmetric_root_jet(s, jet_alpha)
    pd, ref = extract_principal_normals(s, jet=jet), extract_principal_normals(s, jet=root_jet)
    assert pd.multiplicities == ref.multiplicities and np.array_equal(pd.mask, ref.mask)
    for new, old in ((pd.eta, ref.eta), (_projectors(pd), _projectors(ref))):
        assert np.abs(new - old).max() <= 5e-14 * np.abs(old).max()
    rep, ref_rep = sf_report(s, pd=pd, jet=jet), sf_report(s, pd=ref, jet=root_jet)
    fields = ("k", "multiplicities", "dim_N1", "dim_Sf", "conformal_codim", "holonomic", "masked_fraction",
              "checks")
    assert [getattr(rep, f) for f in fields] == [getattr(ref_rep, f) for f in fields]
    assert [c["integrable"] for c in rep.conullity] == [c["integrable"] for c in ref_rep.conullity]
    for m, new, old in zip(pd.multiplicities, rep.dupin_residuals, ref_rep.dupin_residuals, strict=True):
        assert m > 1 or abs(new - old) <= 1e-11


class TestExtraction:
    def test_torus_two_classes(self, torus_v):
        pd = extract_principal_normals(torus_v)
        assert pd.k == 2
        assert pd.multiplicities == (1, 1)

    def test_cylinder_has_zero_class(self):
        s = cylinder_seed(shape=(41, 41), u_range=(0.1, 0.9))
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        assert pd.k == 2
        inner = np.linalg.norm(pd.eta, axis=-1)[:, jet.interior]
        norms = sorted(inner.max(axis=1))
        assert norms[0] < 1e-7 and abs(norms[1] - 1.0) < 1e-6

    def test_tube_over_torus_three_classes(self):
        from dupin.moebius import generalized_tube

        base = torus_seed(R=1.0, r=0.3, shape=(25, 25), u1_range=(0.1, 0.7),
                          u2_range=(0.2, 0.8), ambient=4)
        tube = generalized_tube(base, ParallelNormalSubbundle((0, 1)), 0.1,
                                n_angle=25, angle_range=(0.3, 0.9))
        pd = extract_principal_normals(tube)
        assert pd.k == 3

    def test_sphere_is_single_class(self):
        s = sphere_patch(radius=1.0, shape=(41, 41))
        pd = extract_principal_normals(s)
        assert pd.k == 1
        assert pd.multiplicities == (2,)

    @pytest.mark.parametrize("case", ["torus_patch", "holed_torus_patch", "recursion_step1",
                                      "recursion_step2", "sphere", "holed_clifford_product"])
    def test_same_result_as_per_node_reference(self, case, request):
        # recursion_step2 and the Clifford product change their class order
        # between nodes, so there the tracking rule decides the result
        if case == "sphere":
            s = sphere_patch(radius=1.0, shape=(41, 41))
        elif case.startswith("recursion"):
            s = request.getfixturevalue(case).sample
        elif case == "holed_torus_patch":
            s = _holed(request.getfixturevalue("torus_patch"))
        elif case == "holed_clifford_product":
            s = _holed(clifford_product())
        else:
            s = request.getfixturevalue(case)
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        _assert_same_as_reference(pd, s, jet)
        if case != "torus_patch" and not case.startswith("recursion"):
            # the borderline-masking path (sphere) and the input holes ran
            assert not pd.mask.all()

    def test_class_blocks_move_with_the_class_order(self):
        # multiplicities (2, 1) whose normals trade places from axis-0 row 4
        # on: class 0 takes the one-column group there, so its block in the
        # eigenframe shrinks from two columns to one, and its projector is
        # diag(1, 1, 0) before the swap and diag(0, 0, 1) after it
        g = TensorGrid((8, 6, 6), (0.1, 0.1, 0.1))
        diag = np.zeros((2,) + g.shape + (3,))
        diag[0, :4, ..., :2] = diag[1, :4, ..., 2] = 1.0
        diag[1, 4:, ..., :2] = diag[0, 4:, ..., 2] = 1.0
        s, jet = _diagonal_jet(diag, g)
        pd = extract_principal_normals(s, jet=jet)
        assert pd.multiplicities == (2, 1) and pd.mask.all()
        assert (pd.order[:4] == [0, 1]).all() and (pd.order[4:] == [1, 0]).all()
        P = _projectors(pd)
        assert np.array_equal(P[0, :4], np.broadcast_to(np.diag([1.0, 1.0, 0.0]), P[0, :4].shape))
        assert np.array_equal(P[0, 4:], np.broadcast_to(np.diag([0.0, 0.0, 1.0]), P[0, 4:].shape))
        assert np.array_equal(P.sum(0), np.broadcast_to(np.eye(3), P[0].shape))
        _assert_same_as_reference(pd, s, jet)

    def test_tracking_rule_on_random_normals(self):
        # random normals: the class order changes from node to node and every
        # reference choice counts
        rng = np.random.default_rng(5)
        g = TensorGrid((6, 7, 8), (0.1, 0.1, 0.1))
        mask = np.ones(g.shape, dtype=bool)
        mask[0, 0, 0] = mask[0, 0, 1] = False
        mask[3] = False
        mask[1:3, 2:5, 2:6] = False
        s, jet = _diagonal_jet(rng.uniform(-1.0, 1.0, (2,) + g.shape + (3,)), g, mask)
        pd = extract_principal_normals(s, jet=jet)
        assert pd.k == 3
        _assert_same_as_reference(pd, s, jet)

    def test_ties_keep_first_pattern_and_first_permutation(self):
        g = TensorGrid((4, 5), (0.1, 0.1))
        # two patterns on 10 nodes each: the one met first wins
        diag = np.zeros((1,) + g.shape + (2,))
        diag[0, :2] = (0.5, 0.5)
        diag[0, 2:] = (0.5, -0.5)
        for rows, k in ((slice(None), 1), (slice(None, None, -1), 2)):
            s, jet = _diagonal_jet(diag[:, rows], g)
            pd = extract_principal_normals(s, jet=jet)
            assert pd.k == k and pd.mask.sum() == 10 and pd.mask[0].all()
            _assert_same_as_reference(pd, s, jet)
        # normals turned by 90 degrees from node to node: both class orders
        # cost the same and the first permutation (identity) is kept
        diag = np.zeros((2,) + g.shape + (2,))
        turn = np.indices(g.shape).sum(axis=0) % 2 == 1
        diag[0][~turn] = (1.0, -1.0)
        diag[1][turn] = (1.0, -1.0)
        s, jet = _diagonal_jet(diag, g)
        pd = extract_principal_normals(s, jet=jet)
        assert np.array_equal(pd.eta[0, turn][:, 2:], np.tile([0.0, 1.0], (turn.sum(), 1)))
        _assert_same_as_reference(pd, s, jet)

    def test_curved_normal_bundle_raises(self):
        # (u, v, u^2 - v^2, 2uv), the graph of z^2: its normal bundle is curved
        g = TensorGrid((21, 21), (0.05, 0.05), (-0.5, -0.5))
        U, V = g.meshgrid()
        s = ImmersionSample(g, np.stack([U, V, U**2 - V**2, 2 * U * V], axis=-1))
        jet = numeric_jet(s)
        with pytest.raises(NotProper, match=r"^normal bundle not numerically flat "
                                            r"\(commutator \d\.\d\de[+-]\d\d\)$"):
            extract_principal_normals(s, jet=jet)

    def test_no_valid_nodes_raises(self, torus_patch):
        jet = numeric_jet(torus_patch)
        empty = dataclasses.replace(torus_patch, mask=np.zeros(torus_patch.grid.shape, dtype=bool))
        with pytest.raises(NotProper, match="^no usable interior nodes$"):
            extract_principal_normals(empty, jet=jet)


class TestDupinResidual:
    def test_torus_is_dupin(self, torus_v):
        jet = numeric_jet(torus_v)
        pd = extract_principal_normals(torus_v, jet=jet)
        assert dupin_residual(torus_v, pd, jet=jet).max() < 1e-6

    def test_cyclide_is_dupin(self):
        # inversion shrinks the patch by |f - P0|^2 ~ 8; the trailing homothety
        # restores unit scale (conformal, Dupin-ness exactly preserved) so the
        # residual sits at truncation level rather than the roundoff floor
        from dupin.moebius import Homothety, Inversion, Translate, apply_ltransform

        t = torus_seed(R=1.0, r=0.3, shape=(41, 41), u1_range=(0.1, 0.5), u2_range=(0.2, 0.6))
        cyc = apply_ltransform(apply_ltransform(t, Translate([0.0, 0.0, 2.0])), Inversion())
        cyc = apply_ltransform(cyc, Homothety(8.0))
        jet = numeric_jet(cyc)
        pd = extract_principal_normals(cyc, jet=jet)
        assert dupin_residual(cyc, pd, jet=jet).max() < 1e-6

    def test_ellipsoid_is_not_dupin(self):
        el = ellipsoid_patch(shape=(41, 41))
        pd = extract_principal_normals(el)
        assert dupin_residual(el, pd).max() > 1e-2


class TestConullity:
    def test_cylinder_classes_integrable(self):
        s = cylinder_seed(shape=(41, 41), u_range=(0.1, 0.9))
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        for j in range(2):
            rep = conullity_integrability(s, pd, j, jet=jet)
            assert rep["integrable"]

    def test_recursion_output_holonomic(self, recursion_step1):
        s = recursion_step1.sample
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        for j in range(pd.k):
            rep = conullity_integrability(s, pd, j, jet=jet)
            assert rep["integrable"], rep

    def test_clifford_product_bracket_decides(self):
        # k = 2: the pairwise-independence sufficient condition is empty and
        # the bracket test must decide on its own
        s = clifford_product()
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        assert pd.k == 2
        for j in range(2):
            rep = conullity_integrability(s, pd, j, jet=jet)
            assert rep["sufficient_independence"] is None
            assert rep["integrable"]

    @pytest.mark.parametrize("n", [15, 21])
    def test_generic_graph_is_not_holonomic(self, n):
        # the bracket test's negative control: a generic graph hypersurface
        # in R^4 has three simple principal curvatures, and the conullity of
        # class 2 is not integrable.  Its residual over its scale reads 0.054
        # (15^3) and 0.067 (21^3) and does not fall with h; a bracket kernel
        # whose pairs cancel reads 0
        g = TensorGrid((n,) * 3, (0.4 / (n - 1),) * 3, (0.1, 0.2, 0.3))
        x1, x2, x3 = g.meshgrid()
        x4 = 0.3 * x1**2 + 0.6 * x2**2 + 1.1 * x3**2 + 0.5 * x1 * x2 * x3 + 0.2 * x1**3
        rep = sf_report(ImmersionSample(g, np.stack([x1, x2, x3, x4], axis=-1)))
        assert rep.k == 3 and not rep.holonomic
        c2 = rep.conullity[2]
        assert c2["bracket_residual"] / max(1.0, c2["bracket_scale"]) >= 100 * verify._BRACKET_TOL


class TestSphereLeaves:
    def test_generic_spheres(self, recursion_step1):
        rep = sphere_leaf_check(recursion_step1)
        assert rep["max_fit_residual"] < 1e-7
        assert all(k == "sphere" for k in rep["kinds"].reshape(-1))
        # the leaf centres f + eta/|eta|^2 are constant along the leaves,
        # checked from the raw positions
        s = recursion_step1.sample
        jet = numeric_jet(s)
        res = focal_constancy(s, extract_principal_normals(s, jet=jet), jet=jet)
        assert np.isfinite(res).all()
        assert res.max() < 1e-7

    def test_batched_fits_match_per_leaf_sphere_fit(self, recursion_step2):
        rep = sphere_leaf_check(recursion_step2)
        assert all(k == "sphere" for k in rep["kinds"].reshape(-1))
        for idx in np.ndindex(*rep["kinds"].shape):
            cloud = recursion_step2.leaf_positions(idx).reshape(-1, 4)
            fit = sphere_fit(cloud)
            assert not isinstance(fit, AffineFlat)
            assert rep["fit_residuals"][idx] == fit.residual

    def test_flat_or_degenerate_leaf_matches_its_sphere_fit(self, recursion_step1):
        # one leaf straightened onto its chord (span rank 1, a flat) or
        # collapsed onto one point (DegenerateCloud, as sphere_fit raises)
        flat = _with_leaf(recursion_step1, 3, lambda leaf: np.linspace(leaf[0], leaf[-1], len(leaf)))
        rep = sphere_leaf_check(flat)
        kinds = rep["kinds"]
        assert kinds[3] == "flat" and all(k == "sphere" for k in np.delete(kinds, 3))
        for iu in range(len(kinds)):
            assert rep["fit_residuals"][iu] == sphere_fit(flat.leaf_positions((iu,))).residual
        point = _with_leaf(recursion_step1, 5, lambda leaf: np.broadcast_to(leaf[0], leaf.shape))
        with pytest.raises(DegenerateCloud, match="^all points coincide$"):
            sphere_leaf_check(point)

    def test_mixed_rank_and_flat_leaves_in_one_call(self, recursion_step1):
        # circles (span rank 2), one round 2-sphere patch (rank 3) and one
        # straightened leaf (a flat): every leaf is its own sphere_fit
        def cap(leaf):
            th = np.linspace(0.2, 1.4, len(leaf))
            e = np.eye(4)[:3]
            return 0.5 * (np.cos(th)[:, None] * (np.cos(3 * th)[:, None] * e[0] + np.sin(3 * th)[:, None] * e[1])
                          + np.sin(th)[:, None] * e[2]) + 1.0

        mixed = _with_leaf(_with_leaf(recursion_step1, 7, cap), 3,
                           lambda leaf: np.linspace(leaf[0], leaf[-1], len(leaf)))
        rep = sphere_leaf_check(mixed)
        fits = [sphere_fit(mixed.leaf_positions((iu,))) for iu in range(len(rep["kinds"]))]
        assert [fit.sphere_dim for fit in fits if not isinstance(fit, AffineFlat)].count(2) == 1
        assert [isinstance(fit, AffineFlat) for fit in fits] == [iu == 3 for iu in range(len(fits))]
        for iu, fit in enumerate(fits):
            assert rep["kinds"][iu] == ("flat" if iu == 3 else "sphere")
            assert rep["fit_residuals"][iu] == fit.residual

    def test_flat_leaves_for_subbundle_valued_F(self):
        from dupin.integrable import solve_linear
        from dupin.ribaucour import n_ribaucour_transform

        c = circle_seed(radius=1.0, n=21, u_range=(0.0, 0.4), ambient=4)
        sol = solve_linear(c.triple, (0.0,), 1.0, (0.0,), (0.0, 0.4, 0.0), substeps=8)
        sol = sol.canonical((1,), c.triple)
        res = n_ribaucour_transform(c, ParallelNormalSubbundle((1,)), sol,
                                    TensorGrid((9,), (0.1,), (0.3,)))
        rep = sphere_leaf_check(res)
        assert all(k == "flat" for k in rep["kinds"].reshape(-1))

    def test_cylinder_relative_nullity_flats(self):
        # relative nullity (eta = 0): generalized cylinder leaves are lines
        from dupin.moebius import generalized_cylinder

        c = circle_seed(radius=1.0, n=21, u_range=(0.1, 1.1), ambient=3)
        cyl = generalized_cylinder(c, ParallelNormalSubbundle((1,)), 0,
                                   TensorGrid((9,), (0.2,), (0.1,)))
        # every gamma-line is an affine line
        from dupin.numerics import sphere_fit, AffineFlat

        for iu in (0, 10, 20):
            fit = sphere_fit(cyl.positions[iu])
            assert isinstance(fit, AffineFlat) and fit.dim == 1


class TestEmptyStencilSet:
    def test_derived_checks_raise(self):
        # masking row 4 and column 4 of a 9x9 grid leaves no node three nodes
        # clear of the mask inside the two-layer interior
        s = torus_seed(R=1.0, r=0.3, shape=(9, 9), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        mask = pd.mask.copy()
        mask[4, :] = mask[:, 4] = False
        pd = dataclasses.replace(pd, mask=mask)
        checks = [lambda: dupin_residual(s, pd, jet=jet),
                  lambda: focal_constancy(s, pd, jet=jet),
                  lambda: sf_report(s, pd=pd, jet=jet)]
        checks += [lambda j=j: conullity_integrability(s, pd, j, jet=jet) for j in range(pd.k)]
        for check in checks:
            with pytest.raises(TooFewNodes, match="^no stencil-valid nodes left after masking$"):
                check()


class TestSfReport:
    def test_torus_dimensions(self, torus_v):
        rep = sf_report(torus_v)
        assert rep.k == 2
        assert rep.dim_Sf == 1 == rep.conformal_codim
        assert rep.dim_N1 == 1
        assert rep.holonomic
        assert rep.checks["c_le_k_minus_1"] and rep.checks["n1_bound"]

    def test_sphere_k1(self):
        s = sphere_patch(radius=1.0, shape=(41, 41))
        rep = sf_report(s)
        assert rep.k == 1
        assert rep.dim_Sf == 0 == rep.conformal_codim

    def test_recursion_step2_bound(self, recursion_step2):
        rep = sf_report(recursion_step2.sample)
        assert rep.k == 3
        assert rep.conformal_codim <= 2
        assert rep.checks["c_le_k_minus_1"]

    def test_sf_spectrum_is_free_of_class_order(self, recursion_step2):
        # S_f is spanned by all pairwise differences, so no class is the base
        s = recursion_step2.sample
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        spectra = []
        for perm in itertools.permutations(range(pd.k)):
            perm = list(perm)
            # one column per class: class j's eigenframe column is column j
            pp = dataclasses.replace(pd, eta=pd.eta[perm], eigenframe=pd.eigenframe[..., perm],
                                     order=pd.order[..., perm],
                                     multiplicities=tuple(pd.multiplicities[j] for j in perm))
            rep = sf_report(s, pd=pp, jet=jet)
            assert rep.dim_Sf == 1
            spectra.append(rep.spectra["Sf"])
        assert len(spectra[0]) == 3
        for sp in spectra:
            assert np.abs(sp - spectra[0]).max() <= 1e-12 * spectra[0][0]

    def test_weakly_irreducible_bound(self, recursion_step1, recursion_step2):
        # dim S_f <= 2k/3 - 1 holds for k = 3, dim S_f = 1 and fails for k = 2
        rep = sf_report(recursion_step2.sample, weakly_irreducible=True)
        assert (rep.k, rep.dim_Sf) == (3, 1)
        assert rep.checks["weakly_irreducible_codim_bound"] is True
        rep = sf_report(recursion_step1.sample, weakly_irreducible=True)
        assert (rep.k, rep.dim_Sf) == (2, 1)
        assert rep.checks["weakly_irreducible_codim_bound"] is False
        assert "weakly_irreducible_codim_bound" not in sf_report(recursion_step1.sample).checks

    def test_report_serializes(self, torus_v):
        rep = sf_report(torus_v)
        d = rep.to_dict()
        assert d["k"] == 2
        rows = rep.rows()
        assert any(r[0] == "dupin_residual_0" for r in rows)


class TestDupinTensorSpace:
    def test_torus_dimension_two(self, torus_v):
        rep = dupin_tensor_space(torus_v.triple)
        assert rep["dimension"] == 2
        assert rep["rank_equals_k"]
        assert rep["gap"] > 1e6
        assert rep["probe_span_residual"] < 1e-9

    def test_cylinder_contains_identity_tensor(self):
        s = cylinder_seed(shape=(21, 21))
        rep = dupin_tensor_space(s.triple)
        assert rep["dimension"] == 2
        # B = v (phi_m = 1) is the identity tensor; it must lie in the span
        t = s.triple
        basis = rep["basis"]
        target = t.v.reshape(-1)
        coef, *_ = np.linalg.lstsq(basis.T, target, rcond=None)
        assert np.abs(basis.T @ coef - target).max() < 1e-9

    def test_recursion_net_dimension_three(self, recursion_step2):
        rep = dupin_tensor_space(recursion_step2.triple, substeps=4)
        assert rep["dimension"] == 3
        assert rep["rank_equals_k"]
        assert rep["probe_span_residual"] < 1e-9


    def test_basis_rows_are_unit_seed_solutions(self, torus_patch):
        # the batched sweep gives each unit seed exactly its own solve_B field
        from dupin.integrable import solve_B

        t = torus_patch.triple
        basis = dupin_tensor_space(t)["basis"]
        for m, e in enumerate(np.eye(t.n_classes)):
            B = solve_B(t, e, substeps=8, check_alternate=False).B
            assert np.array_equal(basis[m], B.reshape(-1))


def test_flat_normal_bundle_residuals_small_on_suite(torus_v, recursion_step1):
    for s in (torus_v, recursion_step1.sample):
        jet = numeric_jet(s)
        assert normal_curvature_residual(jet) < 1e-6


def test_focal_constancy_on_torus(torus_v):
    from dupin.verify import focal_constancy

    jet = numeric_jet(torus_v)
    pd = extract_principal_normals(torus_v, jet=jet)
    res = focal_constancy(torus_v, pd, jet=jet)
    # both torus classes have nonvanishing normals: leaves are circles whose
    # centers (the focal map) are constant along them
    assert np.isfinite(res).all()
    assert res.max() < 1e-5


def test_focal_constancy_skips_vanishing_class():
    from dupin.verify import focal_constancy

    s = cylinder_seed(shape=(41, 41), u_range=(0.1, 0.9))
    jet = numeric_jet(s)
    pd = extract_principal_normals(s, jet=jet)
    res = focal_constancy(s, pd, jet=jet)
    assert np.isnan(res).sum() == 1  # the ruling class has eta = 0 (flat leaves)
    assert np.nanmax(res) < 1e-5


def test_stencil_valid_masks_stencil_neighbourhood():
    # a node within three nodes of a masked node, along any axis, is invalid
    g = TensorGrid((21, 21), (0.1, 0.1))
    interior = g.interior_mask(2)
    mask = np.ones(g.shape, dtype=bool)
    mask[10, 10] = False
    valid = _stencil_valid(g, interior, mask)
    near = np.zeros(g.shape, dtype=bool)
    near[7:14, 7:14] = True
    assert not valid[near].any()
    assert np.array_equal(valid[~near], g.interior_mask(4)[~near])
    assert np.array_equal(_stencil_valid(g, interior, None), g.interior_mask(4))


def _with_nan_at(s, where, value=np.nan):
    """s with a non-finite position at one node, masked there."""
    pos = s.positions.copy()
    pos[where] = value
    mask = np.ones(s.grid.shape, dtype=bool)
    mask[where] = False
    return dataclasses.replace(s, positions=pos, mask=mask)


class TestJacobiKernels:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 10**6))
    def test_one_family_matches_lapack(self, D, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, D, D)) * rng.uniform(1e-3, 1e3, (60, 1, 1))
        A = X + X.swapaxes(-1, -2)
        # exactly repeated eigenvalues in a random frame, diagonal and zero matrices
        R, _ = np.linalg.qr(rng.normal(size=(20, D, D)))
        lam = rng.integers(-2, 3, (20, D)).astype(float)
        lam[:, 1] = lam[:, 0]
        A[:20] = (R * lam[:, None]) @ R.swapaxes(-1, -2)
        A[20:30] = np.eye(D) * rng.normal(size=(10, 1, D))
        A[30:33] = 0.0
        A[33:35, 0, D - 1] = A[33:35, D - 1, 0] = np.nan
        w, V = _joint_eigh(A[None], lambda w: w[0])
        w = w[0]
        nan = np.zeros(len(A), dtype=bool)
        nan[33:35] = True
        assert np.isnan(w[nan]).all() and np.isnan(V[nan]).all()
        w, V, A = w[~nan], V[~nan], A[~nan]
        w0, V0 = np.linalg.eigh(A)
        size = np.linalg.norm(A, axis=(-2, -1))
        assert (np.abs(w - w0).max(axis=-1) <= 1e-14 * size).all()
        assert np.abs(V.swapaxes(-1, -2) @ V - np.eye(D)).max() <= 1e-14
        assert (np.diff(w, axis=-1) >= 0).all()
        # projectors onto clusters of eigenvalues separated by a tenth of the norm
        for i in range(len(A)):
            split = np.flatnonzero(np.diff(w0[i]) > 0.1 * size[i])
            for lo, hi in zip(np.r_[0, split + 1], np.r_[split + 1, D]):
                P, P0 = V[i, :, lo:hi] @ V[i, :, lo:hi].T, V0[i, :, lo:hi] @ V0[i, :, lo:hi].T
                assert np.abs(P - P0).max() <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 10**6))
    def test_span_rank_matches_lapack(self, m, p, seed):
        # m normal vectors of rank r in a p-dim normal space of R^N
        rng = np.random.default_rng(seed)
        n, N = 50, p + int(rng.integers(1, 4))
        frames, _ = np.linalg.qr(rng.normal(size=(n, N, N)))
        basis = frames[..., :p]                                   # (n, N, p) columns
        r = int(rng.integers(0, min(m, p) + 1))
        coef = rng.normal(size=(n, m, r)) @ rng.normal(size=(n, r, p))
        V = coef @ basis.swapaxes(-1, -2) * rng.uniform(1e-3, 1e3)
        rank, spec, const = _span_rank(V @ basis, N, 1e-6)
        sv = np.linalg.svd(V, compute_uv=False)
        ranks = (sv > 1e-6 * np.maximum(sv[:, :1], 1e-300)).sum(axis=1)
        assert (rank, const) == (int(ranks.max()), bool(ranks.min() == ranks.max())) == (r, True)
        at = int(np.argmax(ranks))
        assert spec.shape == (min(m, N),)
        assert np.abs(spec - sv[at]).max() <= 1e-13 * max(sv[at, 0], 1e-300)
        assert (spec[min(m, p):] == 0.0).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 10**6))
    def test_one_matrix_family_is_eigh(self, D, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(60, D, D)) * rng.uniform(1e-3, 1e3, (60, 1, 1))
        A = X + X.swapaxes(-1, -2)
        w, V = _joint_eigh(A[None], lambda w: w[0])
        size = np.linalg.norm(A, axis=(-2, -1))
        assert (np.abs(w[0] - np.linalg.eigh(A)[0]).max(axis=-1) <= 1e-14 * size).all()
        assert (np.abs(A @ V - V * w[0][:, None, :]).max(axis=(-2, -1)) <= 1e-14 * size).all()

    @staticmethod
    def _commuting_family(rng, m, D, n=50):
        """m commuting matrices R diag(lam_r) R^T per node (m, n, D, D) whose
        columns fall into D labelled classes of equal eigenvalue vectors, so
        eigenvalues repeat; with the class vectors (m, n, D) and the class
        projectors (D, n, D, D), zero for a label no column takes."""
        R, _ = np.linalg.qr(rng.normal(size=(n, D, D)))
        labels = rng.integers(0, D, (n, D))
        # D distinct class vectors per node from the lattice {-2, ..., 2}^m
        points = np.array([rng.permutation(5**m)[:D] for _ in range(n)])
        levels = (points // 5 ** np.arange(m)[:, None, None] % 5 - 2.0) * rng.uniform(1e-2, 1e2)
        lam = np.take_along_axis(levels, labels[None], axis=-1)
        A = (R * lam[..., None, :]) @ R.swapaxes(-1, -2)
        hit = labels[:, None, :] == np.arange(D)[None, :, None]                  # (n, C, D)
        P = np.einsum("nca,nia,nja->cnij", hit, R, R)
        return A, levels, P

    @staticmethod
    def _class_projectors(w, Q, centers):
        """Projectors (C, n, D, D) onto the columns of Q whose diagonals w
        (m, n, D) equal the class vector centers[:, :, c]."""
        tol = 1e-8 * np.abs(centers).max()
        hit = np.abs(w[:, :, None, :] - centers[..., None]).max(axis=0) < tol      # (n, C, D)
        return np.einsum("nca,nia,nja->cnij", hit, Q, Q)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 10**6))
    def test_commuting_families_give_class_projectors(self, m, D, seed):
        rng = np.random.default_rng(seed)
        A, levels, P = self._commuting_family(rng, m, D)
        w, Q = _joint_eigh(A, lambda w: (w * w).sum(0))
        assert np.abs(Q.swapaxes(-1, -2) @ Q - np.eye(D)).max() <= 1e-14
        # each column sits in one class: the class projectors sum to the identity
        assert np.abs(self._class_projectors(w, Q, levels).sum(0) - np.eye(D)).max() <= 1e-12
        assert np.abs(self._class_projectors(w, Q, levels) - P).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 4), st.integers(0, 10**6))
    def test_orthogonal_mixing_keeps_projectors(self, m, D, seed):
        # S'_r = sum_s O_rs S_s is the same family in another normal basis
        rng = np.random.default_rng(seed)
        A, levels, P = self._commuting_family(rng, m, D)
        O, _ = np.linalg.qr(rng.normal(size=(m, m)))
        mixed = np.einsum("rs,s...->r...", O, A)
        w, Q = _joint_eigh(mixed, lambda w: (w * w).sum(0))
        w0, Q0 = _joint_eigh(A, lambda w: (w * w).sum(0))
        centers = np.einsum("rs,s...->r...", O, levels)
        assert np.abs(self._class_projectors(w, Q, centers) - self._class_projectors(w0, Q0, levels)).max() <= 1e-12
        assert np.abs((w * w).sum(0) - (w0 * w0).sum(0)).max() <= 1e-12 * (levels**2).sum(0).max()

    @pytest.mark.parametrize("m,D", [(2, 3), (1, 2), (3, 4)])
    def test_a_family_alone_is_bit_identical_inside_its_block(self, m, D):
        # 300 random commuting families and 60 degenerate ones (repeated
        # eigenvalues, diagonal, zero and -0.0 matrices): each family's
        # diagonals and eigenvectors alone are those it gets inside one block
        # with the others, bit for bit.  A block that kept rotating every
        # family until all converged gave 103 of the 300 (m, D) = (2, 3)
        # random families other bits alone
        rng = np.random.default_rng(30 + 10 * m + D)
        n = 360
        R, _ = np.linalg.qr(rng.normal(size=(n, D, D)))
        lam = rng.normal(size=(m, n, D))
        lam[:, 300:330, 1] = lam[:, 300:330, 0]
        A = (R * lam[..., None, :]) @ R.swapaxes(-1, -2)
        A = 0.5 * (A + A.swapaxes(-1, -2))
        A[:, 330:350] = np.eye(D) * rng.integers(-2, 3, (m, 20, 1, D))
        A[:, 350:355], A[:, 355:] = 0.0, -0.0
        key = lambda w: (w * w).sum(0)
        w, Q = _joint_eigh(A, key)
        for i in range(n):
            wi, Qi = _joint_eigh(A[:, i:i + 1], key)
            assert np.array_equal(_bits(wi[:, 0]), _bits(w[:, i])) and np.array_equal(_bits(Qi[0]), _bits(Q[i])), i

    def test_nan_in_nan_out(self):
        rng = np.random.default_rng(0)
        A, _, _ = self._commuting_family(rng, 2, 3)
        A[1, 4, 0, 2] = A[1, 4, 2, 0] = np.nan
        A[0, 7] = np.nan
        w, Q = _joint_eigh(A, lambda w: (w * w).sum(0))
        bad = np.zeros(len(Q), dtype=bool)
        bad[[4, 7]] = True
        assert np.isnan(w[:, bad]).all() and np.isnan(Q[bad]).all()
        assert np.isfinite(w[:, ~bad]).all() and np.isfinite(Q[~bad]).all()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 3), st.integers(0, 10**6))
    def test_normal_basis_is_orthonormal_and_normal(self, D, p, seed):
        # a random quadratic immersion with a NaN position at one masked node
        rng = np.random.default_rng(seed)
        N = D + p
        g = TensorGrid((9,) * D, (0.1,) * D)
        u = np.stack(g.meshgrid(), axis=-1)
        B = rng.normal(size=(D, D, N)) * 0.3
        pos = u @ rng.normal(size=(D, N)) + np.einsum("...i,...j,ijk->...k", u, u, B)
        pos[(1,) * D] = np.nan
        mask = np.isfinite(pos).all(axis=-1)
        jet = numeric_jet(ImmersionSample(g, pos, mask=mask))
        E = np.stack([fd_axis(pos, g.spacings[i], i, 1) for i in range(D)], axis=-2)   # (*grid, D, N)
        nu = np.moveaxis(jet.normal_basis, 0, -2)                                      # (*grid, p, N)
        framed = np.isfinite(E).all(axis=(-2, -1))
        assert np.isnan(nu[~framed]).all() and np.isfinite(nu[framed]).all() and not framed.all()
        nu, E = nu[framed], E[framed]
        assert np.abs(nu @ nu.swapaxes(-1, -2) - np.eye(p)).max() <= 1e-14
        # the tangent component grows with the frame's condition number, which the metric squares
        assert (np.abs(E @ nu.swapaxes(-1, -2)).max(axis=(-2, -1))
                <= 1e-14 * np.linalg.cond(E) * np.linalg.norm(E, axis=(-2, -1))).all()


@pytest.fixture(scope="module")
def metamorphic_cases(recursion_step1, torus_patch):
    """The step-1 surface and the 21^2 torus with their reports."""
    return [(s, sf_report(s)) for s in (recursion_step1.sample, torus_patch)]


class TestMetamorphic:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_catalog_transforms_keep_oracle_outputs(self, metamorphic_cases, seed):
        # one transform of each kind per sample: orthogonal maps, translations
        # and homotheties keep the discrete outputs and the Dupin residual
        # (times k^2 for a homothety by k) within 2x, or below 1e-9, the
        # stencils' rounding floor on these unit-scale samples, which moves
        # with |f|; inversions (after a translation off the sample) keep the
        # discrete outputs
        from dupin.moebius import Homothety, Inversion, Translate, apply_ltransform, random_catalog_transform

        rng = np.random.default_rng(seed)
        for s, base in metamorphic_cases:
            for kind in "TOHI":
                T = random_catalog_transform(rng, s.ambient_dim, kinds=(kind,))
                moved = s
                if isinstance(T, Inversion):
                    moved = apply_ltransform(s, Translate(np.eye(s.ambient_dim)[-1] * 2.0))
                rep = sf_report(apply_ltransform(moved, T))
                assert ((rep.k, rep.multiplicities, rep.dim_Sf, rep.dim_N1, rep.holonomic)
                        == (base.k, base.multiplicities, base.dim_Sf, base.dim_N1, base.holonomic))
                if not isinstance(T, Inversion):
                    res = max(rep.dupin_residuals) * (T.k**2 if isinstance(T, Homothety) else 1.0)
                    assert 0.5 <= res / max(base.dupin_residuals) <= 2.0 or max(res, *base.dupin_residuals) < 1e-9


class TestTracking:
    def test_exact_ties_on_holed_grids_match_reference(self):
        # candidate normals from {-1, 0, 1}: many class orders cost exactly the same
        rng = np.random.default_rng(11)
        for p, D in ((1, 2), (2, 2), (2, 3)):
            g = TensorGrid((16, 14) + (6,) * (D - 2), (0.1,) * D)
            diag = rng.integers(-1, 2, (p,) + g.shape + (D,)).astype(float)
            s, jet = _diagonal_jet(diag, g)
            mask = np.ones(g.shape, dtype=bool)
            mask[0, 0] = False
            mask[6, :] = False
            mask[11:15, 9:13] = False
            s = dataclasses.replace(s, mask=mask)
            pd = extract_principal_normals(s, jet=jet)
            _assert_same_as_reference(pd, s, jet)

    def test_nan_costs_count_as_inf(self):
        # per-node loop over the documented rule, on chains with all-NaN,
        # partly NaN and tied gap rows; an all-NaN row inherits its
        # reference's order
        rng = np.random.default_rng(3)
        for k in (2, 3, 4):
            n = 40
            parent = np.r_[0, rng.integers(0, np.arange(1, n))]
            gap = rng.integers(0, 3, (n, k, k)).astype(float)
            gap[rng.random(n) < 0.2] = np.nan
            gap[rng.random((n, k, k)) < 0.1] = np.nan
            perms = list(itertools.permutations(range(k)))
            want = np.zeros((n, k), dtype=int)
            want[0] = np.arange(k)
            for i in range(1, n):
                # each node's minimal matching to its reference's groups, then
                # the reference's class order mapped through it
                costs = [sum(gap[i, pm[b], b] for b in range(k)) for pm in perms]
                sigma = perms[int(np.argmin(np.where(np.isnan(costs), np.inf, costs)))]
                want[i] = [sigma[c] for c in want[parent[i]]]
            assert np.array_equal(_track(lambda lo, hi: gap[lo:hi], parent, k), want)

    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_linkage_closure_on_every_graph(self, D):
        # Warshall's closure labels every graph over D nodes as the closure
        # by repeated squaring of 0/1 matrices does: one graph per edge set
        pairs = list(itertools.combinations(range(D), 2))
        graphs = np.arange(2 ** len(pairs))
        linked = (graphs[:, None] >> np.arange(len(pairs)) & 1).astype(bool)
        power = np.tile(np.eye(D, dtype=np.uint8), (len(graphs), 1, 1))
        for x, (a, b) in enumerate(pairs):
            power[:, a, b] = power[:, b, a] = linked[:, x]
        for _ in range(D.bit_length()):
            power = np.minimum(power @ power, 1)
        assert np.array_equal(_linkage_labels(linked, D), power.argmax(axis=-1))


class TestBoxDerivatives:
    @pytest.mark.parametrize("shape,holes", [((21, 21), False), ((21, 21), True), ((9, 9), False),
                                             ((13, 11, 12), True)])
    def test_bit_identical_to_fd_axis(self, shape, holes):
        # on 13 x 11 x 12 a hole at node 5 leaves no node four layers in, so
        # its hole sits at node 3, which leaves the ones at 7 and 8 along axis 0
        rng = np.random.default_rng(len(shape))
        g = TensorGrid(shape, tuple(0.01 * (d + 1) for d in range(len(shape))))
        mask = np.ones(shape, dtype=bool)
        if holes:
            mask[(5 if len(shape) == 2 else 3,) * len(shape)] = False
            mask[(slice(0, 2),) * len(shape)] = False
        valid = _stencil_valid(g, g.interior_mask(2), mask)
        fields = [rng.normal(size=(2,) + shape + (4,)), rng.normal(size=(3,) + shape + (3, 3))]
        fields[0][0, (6,) * len(shape)] = np.nan
        box = verify._read_region(g)
        inner = tuple(slice(sl.start + 2, sl.stop - 2) for sl in box)
        D, shape = g.ndim, tuple(sl.stop - sl.start for sl in box)
        # the fields side by side on the box, class by class: (*box, 2 * 4 + 3 * 9)
        stack = np.concatenate([np.moveaxis(f[(slice(None),) + box], 0, D).reshape(shape + (-1,)) for f in fields],
                               axis=-1)
        out = np.full((D, int(valid.sum()), stack.shape[-1]), np.inf)
        assert _slopes(g, verify._picker(valid[inner]), stack, out) is out
        col = 0
        for f in fields:
            size = math.prod(f.shape[D + 1:])
            for c in range(len(f)):
                for d in range(D):
                    want = fd_axis(f[c], g.spacings[d], d, 1)[valid].reshape(-1, size)
                    assert np.array_equal(out[d][:, col:col + size].view(np.uint64), want.view(np.uint64))
                col += size


class TestNonFinitePositions:
    @pytest.mark.parametrize("where,value", [((10, 10), np.nan), ((0, 0), np.nan), ((3, 4), np.inf)])
    def test_masked_non_finite_node_keeps_clean_answers(self, torus_patch, where, value):
        s = _with_nan_at(torus_patch, where, value)
        jet = numeric_jet(s)
        # the node's stencil neighbour along axis 1 keeps NaN forms and leaves the interior
        near = (where[0], where[1] + 1)
        assert np.isnan(jet.normal_basis[(slice(None),) + near]).all() and np.isnan(jet.shape_sym[(0,) + near]).all()
        assert not jet.interior[where] and not jet.interior[near]
        clean, rep = sf_report(torus_patch), sf_report(s)
        assert (rep.k, rep.multiplicities, rep.holonomic) == (clean.k, clean.multiplicities, clean.holonomic)
        assert (rep.dim_Sf, rep.dim_N1) == (clean.dim_Sf, clean.dim_N1)
        assert np.isfinite(rep.dupin_residuals).all() and max(rep.dupin_residuals) < 1e-6


class TestWildNodes:
    @pytest.mark.parametrize("value", [1e3, 1e6, 1e160])
    @pytest.mark.parametrize("node", [(10, 10), (4, 4), (2, 2)])
    def test_one_wild_coordinate_leaves_the_scale_alone(self, torus_patch, node, value):
        # one coordinate of a node moved far off: the nodes whose shape
        # operators exceed _SCALE_OUTLIER times the interior median and the
        # median over their 9 x 9 window are dropped, so the shape scale
        # stays the torus's (without the drop: k = 1 at 1e3 and 1e6, and a
        # warning at 1e160).  Node (4, 4)'s 5 x 5 block fills the corner of
        # the interior, and node (2, 2)'s reaches the grid's corner: a window
        # cut at the grid's edge, or with 5 nodes a side, would be mostly
        # block there, so the 9 x 9 window moves inside the grid.  Only nodes whose
        # fourth-order stencils reach the node, two nodes each way, are
        # masked: 21 of that 5 x 5 block, the node itself among them.  Only
        # the nodes two layers in are classified, so the masked ones are
        # counted there: all 21 for (10, 10) and (4, 4), 7 of the 9 in the
        # region for (2, 2), as the extraction that also classified the
        # boundary rows masked
        pos = torus_patch.positions.copy()
        pos[node + (0,)] = value
        s = ImmersionSample(torus_patch.grid, pos)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jet = numeric_jet(s)
            pd = extract_principal_normals(s, jet=jet)
            rep = sf_report(s, pd=pd, jet=jet)
        clean = sf_report(torus_patch)
        assert (rep.k, rep.multiplicities, rep.dim_Sf, rep.holonomic) == (2, (1, 1), 1, True)
        reach = np.zeros(s.grid.shape, dtype=bool)
        reach[node[0] - 2:node[0] + 3, node[1] - 2:node[1] + 3] = True
        read = s.grid.interior_mask(2)
        assert not pd.mask[~read].any()
        assert pd.mask[read & ~reach].all() and not pd.mask[node]
        assert (~pd.mask[read]).sum() == {(10, 10): 21, (4, 4): 21, (2, 2): 7}[node]
        assert max(rep.dupin_residuals) <= 2 * max(clean.dupin_residuals)

    @pytest.mark.parametrize("value", [1e3, 1e160])
    @pytest.mark.parametrize("node", [(0, 0), (0, 10)])
    def test_one_wild_edge_coordinate_stays_out_of_the_checks(self, torus_patch, node, value):
        # a wild position on the grid's edge: extraction classifies only the
        # nodes two layers in, so its normals never enter a tracking chain.
        # Classifying the boundary rows too, at 1e3 the largest Dupin
        # residual read 6.4e10 (0, 0) and 4.9e11 (0, 10) times the clean
        # torus's, and the patch was not holonomic
        pos = torus_patch.positions.copy()
        pos[node + (0,)] = value
        s = ImmersionSample(torus_patch.grid, pos)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = sf_report(s)
        clean = sf_report(torus_patch)
        assert (rep.k, rep.multiplicities, rep.dim_Sf, rep.holonomic) == (2, (1, 1), 1, True)
        assert max(rep.dupin_residuals) <= 2 * max(clean.dupin_residuals)

    @pytest.mark.parametrize("value", [1e3, 1e160])
    @pytest.mark.parametrize("n", [12, 13])
    def test_one_wild_coordinate_at_the_form_box_switch_over(self, n, value):
        # a 12 x 12 torus is formed whole, a 13 x 13 one on the nodes two
        # layers in, which hold a whole 9 x 9 window: on both the wild node
        # at the centre is dropped and masked, and k = 2
        s = torus_seed(R=1.0, r=0.3, shape=(n, n), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))
        node = (n // 2, n // 2)
        pos = s.positions.copy()
        pos[node + (0,)] = value
        wild = ImmersionSample(s.grid, pos)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jet = numeric_jet(wild)
            pd = extract_principal_normals(wild, jet=jet)
        assert (pd.k, pd.multiplicities) == (2, (1, 1))
        assert np.isnan(jet.shape_sym[(slice(None),) + node]).all() and not jet.interior[node] and not pd.mask[node]
        formed = np.zeros(s.grid.shape, dtype=bool)
        formed[_formed(s.grid)] = True
        assert formed.all() == (n == 12) and formed[2:-2, 2:-2].all()
        assert np.array_equal(np.isnan(jet.metric).any(axis=(-2, -1)), ~formed)
        for field in (jet.metric, jet.frame):
            assert np.isnan(field[~formed]).all()
        for field in (jet.shape_sym, jet.normal_basis):
            assert np.isnan(field[:, ~formed]).all()

    def test_smooth_curvature_growth_drops_nothing(self):
        # a cone in log-polar chart, r = e^s for s in [-12, 0]: |S| ~ 1/r
        # spans 221 times the interior median over the interior nodes (404
        # with the boundary layers), but within any 9 x 9 window it changes
        # by under e^2.4.  A rule on the interior median alone dropped 51
        # interior nodes; no node is dropped
        g = TensorGrid((41, 21), (0.3, 0.05), (-12.0, 0.0))
        S, T = g.meshgrid()
        r = np.exp(S)
        s = ImmersionSample(g, np.stack([r * np.cos(T), r * np.sin(T), r], axis=-1))
        jet = numeric_jet(s)
        size = np.sqrt((jet.shape_sym ** 2).sum(0)).max(axis=(-2, -1))
        assert size[jet.interior].max() > verify._SCALE_OUTLIER * np.median(size[jet.interior])
        assert np.isfinite(jet.shape_sym[(slice(None),) + _formed(g)]).all()
        assert np.array_equal(jet.interior, g.interior_mask(2))
        pd = extract_principal_normals(s, jet=jet)
        assert (pd.k, pd.multiplicities) == (2, (1, 1))

    def test_the_scale_outlier_margin(self, recursion_step2):
        # the largest ratio of a node's |S| to the interior median over the
        # 20 oracle fixtures and the catalog transforms is 1.63 (an
        # ellipsoid patch, when its boundary nodes were formed too); the
        # recursion sample reads 1.19 over the nodes the jet forms, and
        # _SCALE_OUTLIER keeps a margin of more than 60
        jet = numeric_jet(recursion_step2.sample)
        box = (slice(None),) + _formed(recursion_step2.sample.grid)
        size = np.sqrt((jet.shape_sym[box] ** 2).sum(0)).max(axis=(-2, -1))
        assert np.isfinite(size).all()
        assert 1.0 <= size.max() / np.median(size[jet.interior[box[1:]]]) < 1.2
        assert verify._SCALE_OUTLIER >= 60 * 1.63


class TestReadRegion:
    """Extraction classifies the nodes the checks read: two layers in on a
    grid whose every axis has at least 9 nodes, else the whole grid.
    `numeric_jet` forms only those nodes when the grid has at least 13 a
    side."""

    @pytest.mark.parametrize("case", ["recursion_step2", "holed_clifford_product"])
    def test_nothing_outside_the_region_is_read_from_the_jet(self, case, request):
        # the jet's stored fields outside the nodes two layers in made NaN:
        # extraction and the report are the same to the byte, and no
        # floating-point error is raised on the way
        s = _holed(clifford_product()) if case == "holed_clifford_product" else request.getfixturevalue(case).sample
        jet = numeric_jet(s)
        region = verify._read_region(s.grid)
        assert region == tuple(slice(2, n - 2) for n in s.grid.shape)
        fields = {}
        for name in ("metric", "frame", "normal_basis", "shape_sym"):
            lead = (slice(None),) * _LEAD.get(name, 0)
            a = np.full(getattr(jet, name).shape, np.nan)
            a[lead + region] = getattr(jet, name)[lead + region]
            fields[name] = a
        spoiled = dataclasses.replace(jet, **fields)
        with np.errstate(all="raise"):
            rep = json.dumps(sf_report(s, jet=spoiled).to_dict())
        assert rep == json.dumps(sf_report(s, jet=jet).to_dict())

    @pytest.mark.parametrize("case", ["recursion_step2", "holed_clifford_product"])
    def test_nothing_outside_the_region_is_read(self, case, request):
        # principal data outside the nodes two layers in made unusable: NaN
        # normals and eigenframes, class orders out of range and the mask
        # set, and the report is the same to the byte
        s = _holed(clifford_product()) if case == "holed_clifford_product" else request.getfixturevalue(case).sample
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        out = ~s.grid.interior_mask(2)
        assert not pd.mask[out].any() and pd.mask[~out].sum() > 0.9 * (~out).sum()
        eta, frame, order, mask = pd.eta.copy(), pd.eigenframe.copy(), pd.order.copy(), pd.mask.copy()
        eta[:, out], frame[out], order[out], mask[out] = np.nan, np.nan, 99, True
        spoiled = dataclasses.replace(pd, eta=eta, eigenframe=frame, order=order, mask=mask)
        with np.errstate(all="raise"):
            rep = json.dumps(sf_report(s, pd=spoiled, jet=jet).to_dict())
        assert rep == json.dumps(sf_report(s, pd=pd, jet=jet).to_dict())

    @pytest.mark.parametrize("shape", [(21, 7), (7, 21), (9, 8)])
    def test_a_short_axis_classifies_every_valid_node(self, shape):
        # no node four layers in: the checks fall back to the interior, and
        # extraction classifies the whole grid, boundary rows included
        s = torus_seed(R=1.0, r=0.3, shape=shape, u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))
        mask = np.ones(shape, dtype=bool)
        mask[0, 0] = mask[3, 3] = False
        for sample in (s, dataclasses.replace(s, mask=mask)):
            pd = extract_principal_normals(sample)
            assert pd.k == 2 and np.array_equal(pd.mask, sample.valid())

    def test_no_node_four_layers_in_raises(self):
        # a hole at the middle of 13 x 13 masks every node four layers in;
        # the ring two to three layers in, which a fallback checked, reads
        # Dupin residuals of 7e-3 and 0.13 on this torus
        s = torus_seed(R=1.0, r=0.3, shape=(13, 13), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2))
        mask = np.ones(s.grid.shape, dtype=bool)
        mask[6, 6] = False
        holed = dataclasses.replace(s, mask=mask)
        jet = numeric_jet(holed)
        pd = extract_principal_normals(holed, jet=jet)
        assert pd.k == 2
        with pytest.raises(TooFewNodes, match="^no stencil-valid nodes left after masking$"):
            sf_report(holed, pd=pd, jet=jet)
        # the same with no mask, from an interior without those nodes
        g = s.grid
        with pytest.raises(TooFewNodes, match="^no stencil-valid nodes left after masking$"):
            _stencil_valid(g, g.interior_mask(2) & ~g.interior_mask(4), None)
        assert np.array_equal(_stencil_valid(g, g.interior_mask(2), None), g.interior_mask(4))


def _bits(a):
    """The bytes of a float or bool array, so that NaN compares by its bits."""
    return np.ascontiguousarray(a).view(np.uint8)


def _whole_grid_alpha(g, pos, normal_proj):
    """The whole-grid normal-projected second derivatives of positions pos as
    one (n, D*D, N) product, in the (D, D, *grid, N) view: the construction
    `numeric_jet` replaced by its slabs.  Also returns the second and first
    derivatives."""
    D = g.ndim
    pos = np.where(np.isfinite(pos), pos, np.nan)
    N = pos.shape[-1]
    first = np.stack([fd_axis(pos, g.spacings[i], i, 1) for i in range(D)])
    second = np.empty((D, D) + g.shape + (N,))
    for i in range(D):
        second[i, i] = fd_axis(pos, g.spacings[i], i, 2)
        for j in range(i + 1, D):
            second[i, j] = second[j, i] = fd_axis(first[i], g.spacings[j], j, 1)
    alpha = np.moveaxis(second.reshape(D * D, -1, N), 0, 1) @ normal_proj.reshape(-1, N, N)
    return np.moveaxis(alpha.reshape(g.shape + (D, D, N)), (-3, -2), (0, 1)), second, first


class TestBatchedDerivedChecks:
    """The derived checks batch their per-class products over the classes;
    each value is the per-class loop's, bit for bit."""

    @staticmethod
    def _conullity_per_class(classes, P, G, eta, d_Q):
        D, k = G.shape[-1], len(eta)
        a, b = np.triu_indices(D, 1)
        top, low = [], []
        for x, (j, Pj) in enumerate(zip(classes, P)):
            Qj = np.eye(D) - Pj
            dQ = np.ascontiguousarray(np.moveaxis(d_Q[x], 1, -1))
            DY = dQ @ Qj[:, None]
            br = (DY[:, :, b, a] - DY[:, :, a, b]).swapaxes(-1, -2)
            bad = br @ Pj.swapaxes(-1, -2)
            top.append((np.sqrt(np.abs(_sum_last((bad @ G) * bad))).max(initial=0.0),
                        np.sqrt(np.abs(_sum_last((br @ G) * br))).max(initial=0.0)))
            cross = []
            for i, l in itertools.combinations([i for i in range(k) if i != j], 2):
                di, dl = eta[i] - eta[j], eta[l] - eta[j]
                cross2 = _sum_last(di**2) * _sum_last(dl**2) - _sum_last(di * dl) ** 2
                cross.append(np.sqrt(np.maximum(cross2, 0.0)).min())
            low.append(cross)
        return np.array(top).reshape(len(P), 2), np.array(low).reshape(len(P), -1)

    @staticmethod
    def _along_one(dirs, nX, dV, proj=None):
        DXV = dirs.swapaxes(-1, -2) @ dV
        if proj is not None:
            DXV = DXV @ proj
        mag = np.sqrt(_sum_last(DXV * DXV))
        with np.errstate(divide="ignore", invalid="ignore"):
            mag = np.where(nX > 1e-8, mag / np.maximum(nX, 1e-300), 0.0)
        return mag.max(axis=(1, 2))

    @pytest.mark.parametrize("k,D", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
    def test_conullity_and_along_match_the_per_class_loop(self, k, D):
        rng = np.random.default_rng(10 * k + D)
        n, N = 37, D + 2
        classes = range(1, k)                    # a group that leaves class 0 out
        c = len(classes)
        P, G = rng.normal(size=(c, n, D, D)), rng.normal(size=(n, D, D))
        eta, d_Q = rng.normal(size=(k, n, N)), rng.normal(size=(c, n, D, D, D))
        P[0, 5, 1, 0] = np.nan
        top, low = verify._conullity(P, G, d_Q), verify._independence(classes, eta)
        want_top, want_low = self._conullity_per_class(classes, P, G, eta, d_Q)
        assert np.array_equal(_bits(top), _bits(want_top)) and np.array_equal(_bits(low), _bits(want_low))

        dirs, d_eta = rng.normal(size=(c, n, D, D)), rng.normal(size=(c, n, D, N))
        nX = rng.uniform(0.5, 2.0, size=(c, n, D))
        nX[:, 3] = 1e-9                          # a frame column too short to divide by
        proj = rng.normal(size=(n, N, N))
        live = [x for x in range(c) if x % 2 == 0]
        d_F = rng.normal(size=(len(live), n, D, N))
        # d eta and d F side by side, d F of a class that is not live not read
        d_ef = np.concatenate([d_eta, np.full_like(d_eta, np.nan)], axis=-1)
        d_ef[live, ..., N:] = d_F
        dupin, leaf = verify._along(dirs, nX, d_ef, proj, live)
        assert np.array_equal(_bits(dupin), _bits(self._along_one(dirs, nX, d_eta, proj)))
        assert np.array_equal(_bits(leaf), _bits(self._along_one(dirs[live], nX[live], d_F)))


class TestNodeBlocks:
    """numeric_jet's slabs, extraction's node blocks and the derived checks'
    slabs give the whole-grid values bit for bit, whatever the block size."""

    @pytest.mark.parametrize("n0", [5, 6, 7, 8, 9])
    @pytest.mark.parametrize("D", [2, 3])
    def test_slab_second_derivatives_are_fd_axis(self, n0, D):
        # every range lo..hi-1 of each axis with the others whole, where the
        # ranges meet the boundary stencils, and boxes cut along every axis,
        # from the first derivatives on the box's axis-0 rows only; one
        # masked node has a NaN position
        rng = np.random.default_rng(10 * n0 + D)
        g = TensorGrid((n0,) + (6, 5)[:D - 1], (0.1, 0.07, 0.05)[:D])
        pos = rng.normal(size=g.shape + (D + 2,))
        pos[(n0 // 2,) + (2,) * (D - 1)] = np.nan
        _, second, first = _whole_grid_alpha(g, pos, np.eye(D + 2))
        whole = tuple(slice(0, n) for n in g.shape)
        boxes = [whole[:d] + (slice(lo, hi),) + whole[d + 1:]
                 for d in range(D) for lo, hi in itertools.combinations(range(g.shape[d] + 1), 2)]
        boxes += [tuple(slice(a, n - b) for n in g.shape) for a, b in ((1, 1), (2, 2), (0, 3), (2, 1))]
        for box in boxes:
            rows = verify._gradient(g, _reference_finite(pos), box[0])
            assert np.array_equal(_bits(rows), _bits(first[:, box[0]])), box
            assert np.array_equal(_bits(_second(g, pos, rows, box)), _bits(second[(slice(None),) * 2 + box])), box

    @pytest.mark.parametrize("case", ["torus_patch", "recursion_step2", "recursion_k4", "holed_nan_clifford"])
    @pytest.mark.parametrize("jet_values", [None, 1])
    def test_alpha_and_H_are_the_whole_grid_product(self, case, jet_values, request, monkeypatch, jet_alpha):
        if case == "holed_nan_clifford":
            s = _with_nan_at(_holed(clifford_product()), (8, 3))
        else:
            s = request.getfixturevalue(case)
            s = s if isinstance(s, ImmersionSample) else s.sample
        if jet_values is not None:
            monkeypatch.setattr(verify, "_JET_VALUES", jet_values)      # one-row slabs
        # at the nodes the jet forms (every node of the 11^4 grid, the nodes
        # two layers in of the others), against the whole-grid products built
        # from the jet's own frame there
        jet = numeric_jet(s)
        box = _formed(s.grid)
        val = (slice(None),) + box
        pos = _reference_finite(s.positions)
        _, second, first = _whole_grid_alpha(s.grid, pos, np.eye(s.ambient_dim))
        # the slabs' normal bases are the whole grid's
        basis = verify._normal_frame(first, jet.frame, jet.shape_sym.shape[0])
        assert np.array_equal(_bits(jet.normal_basis[val]), _bits(basis[val]))
        # the normal basis lies in the normal space, so H contracts the
        # unprojected second derivatives: the slabs' shape operators are the
        # whole grid's E^T H E, bit for bit
        H = np.einsum("ij...k,r...k->r...ij", second, jet.normal_basis)
        assert np.array_equal(_bits(jet.shape_sym[val]), _bits((jet.frame.swapaxes(-1, -2) @ H @ jet.frame)[val]))
        # alpha from the stored fields is the whole grid's projected second
        # derivatives at the interior nodes (finite forms) within 1e-14 of
        # its largest entry (measured up to 6.6e-16)
        proj = np.einsum("r...k,r...l->...kl", jet.normal_basis, jet.normal_basis)
        new = jet_alpha(jet)[:, :, jet.interior]
        old = _whole_grid_alpha(s.grid, pos, proj)[0][:, :, jet.interior]
        assert np.abs(new - old).max() <= 1e-14 * np.abs(old).max()

    @pytest.mark.parametrize("case", ["recursion_step1", "recursion_step2", "recursion_k4", "holed_clifford",
                                      "ellipse_product"])
    def test_block_sizes_do_not_change_outputs(self, case, request, monkeypatch):
        if case == "holed_clifford":
            s = _holed(clifford_product())
        elif case == "ellipse_product":
            # three planar ellipses in R^6: their curvature normals are
            # independent, so the pairwise-independence minima are not 0 as
            # the recursion samples' are, and they fall along axis 0
            g = TensorGrid((15,) * 3, (0.8 / 14,) * 3, (0.1, 0.2, 0.3))
            u, v, w = g.meshgrid()
            s = ImmersionSample(g, np.stack([np.cos(u), 0.6 * np.sin(u), 0.8 * np.cos(v), 0.5 * np.sin(v),
                                             0.6 * np.cos(w), 0.4 * np.sin(w)], axis=-1))
        else:
            s = request.getfixturevalue(case).sample
        jet = numeric_jet(s)
        pd = extract_principal_normals(s, jet=jet)
        rep = sf_report(s, pd=pd, jet=jet).to_dict()
        # 3 * 2**16 passes over groups of unequal size: 2 and 1 class at 21^3,
        # 3 and 1 at 11^4
        for values in (1, 50, 3000, 3 * 2**16):
            monkeypatch.setattr(verify, "_BLOCK_VALUES", values)
            monkeypatch.setattr(verify, "_PASS_VALUES", values)
            small = extract_principal_normals(s, jet=jet)
            for f in ("eta", "eigenframe", "order", "mask"):
                assert np.array_equal(_bits(getattr(small, f)), _bits(getattr(pd, f))), (values, f)
            assert sf_report(s, pd=pd, jet=jet).to_dict() == rep, values
