import numpy as np
import pytest

from dupin.errors import NotParallel
from dupin.net import (
    ClassMap,
    ImmersionSample,
    ParallelNormalSubbundle,
    Triple,
    attach_subbundle,
    principal_normals_from_triple,
    validate_triple,
)
from dupin.numerics import TensorGrid, fd_axis
from dupin.seeds import torus_seed


def test_class_map_basics():
    cm = ClassMap((0, 1, 1, 2))
    assert cm.n_classes == 3
    assert cm.multiplicities == (1, 2, 1)
    assert not cm.is_simple()
    with pytest.raises(ValueError):
        ClassMap((0, 2))


class TestValidateTriple:
    def test_constant_cylinder_data(self):
        # v = 1, h = 0, V = 0 except one constant entry: every residual vanishes
        g = TensorGrid((9, 9), (0.1, 0.1))
        k = 2
        v = np.ones((k,) + g.shape)
        h = np.zeros((2, k) + g.shape)
        V = np.zeros((k, 1) + g.shape)
        V[0, 0] = 1.0
        t = Triple(g, ClassMap.simple(2), v, h, V)
        rep = validate_triple(t, tol=1e-12)
        assert rep.passed
        assert rep.max_residual < 1e-13

    def test_torus_chart(self):
        # closed-form chart, residuals at fd truncation level for h = 1e-2
        t = torus_seed(R=1.0, r=0.3, shape=(41, 41), u1_range=(0.0, 0.4), u2_range=(0.0, 0.4))
        rep = validate_triple(t.triple, tol=1e-6)
        assert rep.passed, rep

    def test_perturbed_triple_fails(self):
        t = torus_seed(R=1.0, r=0.3, shape=(41, 41)).triple
        rng = np.random.default_rng(0)
        v = t.v.copy()
        v[0] += 1e-3 * rng.normal(size=v[0].shape)
        bad = Triple(t.grid, t.class_map, v, t.h, t.V)
        rep = validate_triple(bad, tol=1e-6)
        assert not rep.passed
        assert rep.max_residual > 1e-3


    @pytest.mark.parametrize("case", ["torus_patch", "cylinder_patch", "recursion_step1",
                                      "recursion_step2", "masked_multiplicity"])
    def test_residuals_equal_the_per_equation_loop(self, case, request):
        t = _masked_multiplicity_triple() if case == "masked_multiplicity" else request.getfixturevalue(case)
        t = t.triple if hasattr(t, "triple") else t
        got, want = validate_triple(t).residuals, _loop_residuals(t)
        assert list(got) == list(want)
        assert got == want

    def test_non_finite_value_at_a_valid_node_fails(self, torus_patch):
        # a 10x10 NaN block of v at unmasked nodes, then v NaN everywhere
        t = torus_patch.triple
        for block in ((slice(None), slice(5, 15), slice(5, 15)), (slice(None),)):
            v = t.v.copy()
            v[block] = np.nan
            rep = validate_triple(Triple(t.grid, t.class_map, v, t.h, t.V))
            assert not rep.passed
            assert rep.failure == "v not finite at valid nodes"
        h, V = t.h.copy(), t.V.copy()
        h[1, 0, 0, 20] = np.inf
        V[0, 0, 20, 0] = np.nan
        rep = validate_triple(Triple(t.grid, t.class_map, t.v, h, V))
        assert not rep.passed and rep.failure == "h, V not finite at valid nodes"

    def test_no_valid_node_is_an_explicit_failure(self, torus_patch):
        t = torus_patch.triple
        rep = validate_triple(Triple(t.grid, t.class_map, t.v, t.h, t.V, mask=np.zeros(t.grid.shape, dtype=bool)))
        assert not rep.passed
        assert rep.failure == "no valid node" and rep.masked_fraction == 1.0
        assert np.isnan(list(rep.residuals.values())).all() and np.isnan(rep.max_residual)
        assert "no valid node" in str(rep)

    def test_no_checkable_node_is_an_explicit_failure(self, torus_patch):
        # a checkerboard mask: every stencil of a valid node reads a masked one
        t = torus_patch.triple
        mask = np.indices(t.grid.shape).sum(axis=0) % 2 == 0
        rep = validate_triple(Triple(t.grid, t.class_map, t.v, t.h, t.V, mask=mask))
        assert not rep.passed
        assert rep.failure == "no valid node has its fd stencils inside the valid set"
        assert np.isnan(list(rep.residuals.values())).all() and rep.masked_fraction == 1.0 - mask.mean()

    def test_non_finite_residual_fails(self, torus_patch):
        # finite fields whose product h v overflows
        t = torus_patch.triple
        rep = validate_triple(Triple(t.grid, t.class_map, 1e300 * t.v, 1e10 * t.h, t.V))
        assert not rep.passed and rep.failure == "a residual is not finite"
        assert not np.isfinite(rep.residuals["I.i"])

    def test_blow_up_mask_still_passes(self, torus_patch):
        # integrate_triple masks the nodes where v is not finite or beyond
        # BLOWUP_BOUND; the fields there may be anything, so the nodes whose
        # stencils read them are not checked, and every other node is
        from dupin.integrable import BLOWUP_BOUND

        t = torus_patch.triple
        v, h, V = t.v.copy(), t.h.copy(), t.V.copy()
        v[0, 14:, 12:] = np.inf
        h[..., 14:, 12:] = V[..., 14:, 12:] = np.nan
        bad = ~np.isfinite(v).all(axis=0) | (np.abs(v) > BLOWUP_BOUND).any(axis=0)
        rep = validate_triple(Triple(t.grid, t.class_map, v, h, V, mask=~bad))
        assert rep.passed and not rep.failure, rep
        vals = np.array(list(rep.residuals.values()))
        assert np.isfinite(vals).all() and (vals > 0).all(), rep
        assert rep.max_residual <= validate_triple(t).max_residual


def _masked_multiplicity_triple():
    """Random fields on a 3-d grid with a two-coordinate class and masked nodes."""
    rng = np.random.default_rng(5)
    g = TensorGrid((9, 7, 6), (0.1, 0.2, 0.15), (0.3, -0.1, 0.2))
    cm = ClassMap((0, 1, 1))
    mask = np.ones(g.shape, dtype=bool)
    mask[4, 3, 2] = mask[2, 5, 3] = False
    return Triple(g, cm, rng.normal(size=(2,) + g.shape), rng.normal(size=(3, 2) + g.shape),
                  rng.normal(size=(2, 3) + g.shape), mask=mask)


def _loop_residuals(t):
    """Reference: validate_triple's residuals as it computed them before it
    differentiated each field once per axis, one fd_axis call and one
    maximum per equation component, at the valid nodes whose five-node
    windows along every axis hold valid nodes only (interior ones when
    there are any)."""
    g = t.grid
    D, k, R = g.ndim, t.n_classes, t.n_normals
    cls = t.class_map.classes
    checked = t.valid().copy()
    for ax in range(D):
        pad = np.pad(t.valid(), [(2, 2) if a == ax else (0, 0) for a in range(D)], constant_values=True)
        for off in range(5):
            checked &= np.take(pad, np.arange(off, off + g.shape[ax]), axis=ax)
    valid = checked & g.interior_mask(2)
    if not valid.any():
        valid = checked

    def d(values, axis):
        return fd_axis(values, g.spacings[axis], axis, 1)

    def mx(arr):
        return float(np.abs(arr[valid]).max()) if valid.any() else float("nan")

    res = {}
    r1 = 0.0
    for j in range(D):
        for m in range(k):
            r1 = max(r1, mx(d(t.v[m], j) - t.h[j, m] * t.v[cls[j]]))
    res["I.i"] = r1
    r2 = 0.0
    for i in range(D):
        for j in range(i + 1, D):
            if cls[i] == cls[j]:
                continue
            term = d(t.h[i, cls[j]], i) + d(t.h[j, cls[i]], j)
            for l in range(D):
                if l in (i, j):
                    continue
                term = term + t.h[l, cls[i]] * t.h[l, cls[j]]
            term = term + (t.V[cls[i]] * t.V[cls[j]]).sum(axis=0)
            r2 = max(r2, mx(term))
    res["I.ii"] = r2
    r3 = 0.0
    for i in range(D):
        for j in range(D):
            if i == j:
                continue
            for m in range(k):
                if m == cls[i]:
                    continue
                r3 = max(r3, mx(d(t.h[i, m], j) - t.h[i, cls[j]] * t.h[j, m]))
    res["I.iii"] = r3
    r4 = 0.0
    for j in range(D):
        for m in range(k):
            for r in range(R):
                r4 = max(r4, mx(d(t.V[m, r], j) - t.h[j, m] * t.V[cls[j], r]))
    res["I.iv"] = r4
    return res


class TestPrincipalNormals:
    def test_circle_eta_is_minus_radial(self, circle4):
        pd = principal_normals_from_triple(circle4.triple, circle4)
        assert pd.k == 1
        assert np.abs(pd.eta[0] + circle4.normals[0]).max() < 1e-14

    def test_cylinder_ruling_class_is_zero(self, cylinder_patch):
        pd = principal_normals_from_triple(cylinder_patch.triple, cylinder_patch)
        assert pd.k == 2
        assert np.abs(pd.eta[0] + cylinder_patch.normals[0]).max() < 1e-14
        assert np.abs(pd.eta[1]).max() == 0.0

    def test_torus_matches_closed_form_curvatures(self, torus_patch):
        pd = principal_normals_from_triple(torus_patch.triple, torus_patch)
        U1, U2 = torus_patch.grid.meshgrid()
        kap1 = -np.cos(U2) / (1.0 + 0.3 * np.cos(U2))
        kap2 = -1.0 / 0.3
        xi = torus_patch.normals[0]
        assert np.abs(pd.eta[0] - kap1[..., None] * xi).max() < 1e-13
        assert np.abs(pd.eta[1] - kap2 * xi).max() < 1e-13


class TestSubbundle:
    def test_circle_constant_normals_parallel(self, circle4):
        sb = attach_subbundle(circle4, (1, 2))
        assert sb.rank == 2
        assert sb.residual < 1e-8

    def test_radial_normal_is_parallel_too(self, circle4):
        sb = attach_subbundle(circle4, (0,))
        assert sb.residual < 1e-8

    def test_helix_frenet_frame_not_parallel(self):
        # Frenet normal of a helix rotates in the normal bundle
        g = TensorGrid((41,), (0.05,))
        u = g.axis_coords(0)
        a, b = 1.0, 0.4
        c = np.sqrt(a * a + b * b)
        pos = np.stack([a * np.cos(u), a * np.sin(u), b * u], axis=-1)
        T = np.stack([-a * np.sin(u), a * np.cos(u), np.full_like(u, b)], axis=-1) / c
        Nf = np.stack([-np.cos(u), -np.sin(u), np.zeros_like(u)], axis=-1)
        B = np.cross(T, Nf)
        s = ImmersionSample(g, pos, tangents=T[None], normals=np.stack([Nf, B]),
                            lame=np.full((1,) + g.shape, c))
        with pytest.raises(NotParallel):
            attach_subbundle(s, (0,))

    def test_rank_zero_accepted_here(self, circle4):
        sb = attach_subbundle(circle4, ())
        assert sb.rank == 0


def test_frame_residuals_consistency(torus_patch):
    res = torus_patch.frame_residuals()
    assert res["gram"] < 1e-12
    assert res["dg_vs_vX"] < 1e-6


def _fill_rule_sample(case, request):
    """A library-built sample of each construction site that has a triple."""
    from dupin.integrable import reconstruct_frame
    from dupin.moebius import (Homothety, Inversion, Orthogonal, ParallelTranslate, Translate,
                               apply_ltransform, generalized_cylinder, generalized_tube)
    from dupin.ribaucour import inversion_w, ribaucour_transform
    from dupin.seeds import circle_seed, cylinder_seed, flat_seed

    tor = request.getfixturevalue("torus_patch")
    lifted = apply_ltransform(tor, Translate([0.0, 0.0, 2.0]))
    c, s = np.cos(0.3), np.sin(0.3)
    build = {
        "circle": lambda: circle_seed(ambient=4),
        "cylinder": lambda: cylinder_seed(shape=(9, 9)),
        "torus": lambda: tor,
        "flat": lambda: flat_seed(),
        "translate": lambda: lifted,
        "orthogonal": lambda: apply_ltransform(tor, Orthogonal([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])),
        "homothety": lambda: apply_ltransform(tor, Homothety(-1.3)),
        "inversion": lambda: apply_ltransform(lifted, Inversion()),
        "parallel": lambda: apply_ltransform(tor, ParallelTranslate([0.1])),
        "generalized_cylinder": lambda: generalized_cylinder(
            request.getfixturevalue("circle4"), ParallelNormalSubbundle((1,)), 0,
            TensorGrid((7,), (0.1,), (0.2,))),
        "generalized_tube": lambda: generalized_tube(
            torus_seed(shape=(9, 9), ambient=5), ParallelNormalSubbundle((1, 2)), 0.2, n_angle=9),
        "focal_tube": lambda: generalized_tube(
            circle_seed(u_range=(0.1, 1.1)), ParallelNormalSubbundle((0, 1)), 1.0, n_angle=21),
        "reconstruct_frame": lambda: reconstruct_frame(tor.triple),
        "ribaucour_transform": lambda: ribaucour_transform(
            lifted, inversion_w(lifted, np.array([0.4, -0.3, 4.0]), 1.1))[0],
        "dupin_step": lambda: request.getfixturevalue("recursion_step1").sample,
    }
    return build[case]()


@pytest.mark.parametrize("case", [
    "circle", "cylinder", "torus", "flat", "translate", "orthogonal", "homothety", "inversion",
    "parallel", "generalized_cylinder", "generalized_tube", "focal_tube", "reconstruct_frame",
    "ribaucour_transform", "dupin_step"])
def test_lame_and_sff_come_from_the_triple(case, request):
    # one place computes a sample's Lame and shape coefficients from its
    # triple; the homothety scales the parent's sff (s.sff / k), which can
    # differ from V / (k v) in the last bit
    s = _fill_rule_sample(case, request)
    assert s.triple is not None
    pairs = [(s.lame, s.triple.lame())] + ([] if case == "homothety" else [(s.sff, s.triple.sff())])
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if case == "focal_tube":
        assert s.mask is not None and not np.isfinite(s.sff[:, :, ~s.mask]).all()
