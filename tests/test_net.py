import numpy as np
import pytest

from dupin.errors import NotParallel
from dupin.net import (
    ClassMap,
    ImmersionSample,
    Triple,
    attach_subbundle,
    principal_normals_from_triple,
    validate_triple,
)
from dupin.numerics import TensorGrid
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
