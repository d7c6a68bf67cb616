"""The node rule every construction-side check follows: a pointwise check
reads the valid nodes, an fd check the valid nodes whose stencils read valid
nodes only, a non-finite value at a node a check reads fails it, and a check
left with no node reads NaN or fails.  So a masked node may hold any value."""

import ast
import pathlib

import numpy as np
import pytest

from dupin.errors import FrameDrift, NotParallel, ZeroLame
from dupin.integrable import reconstruct_frame, solve_linear
from dupin.net import (ImmersionSample, Triple, attach_subbundle, principal_normals_from_triple,
                       validate_triple)
from dupin.ribaucour import combescure_check
from dupin.seeds import torus_seed

_HOLE = (15, 14)            # the masked node
_BENT = (5, 5)              # a valid node far from it


@pytest.fixture(scope="module")
def torus4():
    """A 21^2 torus in R^4: two parallel normals, an analytic triple."""
    return torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2), ambient=4)


def _holed(s, value, at=_HOLE):
    """A copy of s and of its triple, masked at `at`, where every field
    holds `value`."""
    mask = np.ones(s.grid.shape, dtype=bool)
    mask[at] = False
    fields = {}
    for name in ("positions", "tangents", "normals", "lame"):
        a = getattr(s, name).copy()
        vector = name != "lame"                 # an ambient vector per node: (..., *grid, N)
        a[(Ellipsis,) + at + (slice(None),) * vector] = value
        fields[name] = a
    t = s.triple
    v, h, V = t.v.copy(), t.h.copy(), t.V.copy()
    for a in (v, h, V):
        a[(Ellipsis,) + at] = value
    triple = Triple(t.grid, t.class_map, v, h, V, mask=mask, analytic=t.analytic)
    return ImmersionSample(s.grid, triple=triple, mask=mask, **fields)


def _poisoned_corner(s, value):
    """s's triple with `value` at the far corner node, in its arrays and in
    its closed form, and that node masked."""
    t = _holed(s, value, tuple(n - 1 for n in s.grid.shape)).triple
    corner = np.array([s.grid.axis_coords(d)[-1] for d in range(s.grid.ndim)])

    def analytic(pts):
        out = s.triple.analytic(pts)
        for field in out.values():
            field[..., np.isclose(pts, corner, rtol=0.0, atol=1e-12).all(-1)] = value
        return out

    t.analytic = analytic
    return t


def _validate(s, value):
    rep = validate_triple(_holed(s, value).triple)
    return rep.residuals, rep.failure


def _gnorm(s, value):
    return solve_linear(_holed(s, value).triple, (0.1, 0.2), 1.0, (0.1, 0.2), (0.3, -0.2),
                        substeps=4).reports["gnorm_fd"]


def _combescure(s, value):
    w = solve_linear(s.triple, (0.1, 0.2), 1.0, (0.1, 0.2), (0.3, -0.2), substeps=4)
    return combescure_check(_holed(s, value), w)


def _attach(s, value):
    return attach_subbundle(_holed(s, value), (0,)).residual


def _frames(s, value):
    return _holed(s, value).frame_residuals()


def _principal(s, value):
    h = _holed(s, value)
    return principal_normals_from_triple(h.triple, h).eta[:, h.mask]


def _reconstruct(s, value):
    rec = reconstruct_frame(_poisoned_corner(s, value), substeps=4)
    return rec.reports["gram_defect"], rec.positions[rec.mask]


_CHECKS = {"validate_triple": _validate, "gnorm_fd": _gnorm, "combescure_check": _combescure,
           "attach_subbundle": _attach, "frame_residuals": _frames,
           "principal_normals_from_triple": _principal, "reconstruct_frame": _reconstruct}


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
@pytest.mark.parametrize("check", sorted(_CHECKS))
def test_a_masked_node_may_hold_any_value(torus4, check, value):
    finite = _CHECKS[check](torus4, 0.7)
    assert _same(_CHECKS[check](torus4, value), finite)


def _bent(s):
    """s with its normals turned by 0.1 rad in the normal plane at _BENT."""
    normals = s.normals.copy()
    c, sn = np.cos(0.1), np.sin(0.1)
    normals[0][_BENT], normals[1][_BENT] = (c * s.normals[0][_BENT] + sn * s.normals[1][_BENT],
                                            c * s.normals[1][_BENT] - sn * s.normals[0][_BENT])
    return ImmersionSample(s.grid, s.positions, tangents=s.tangents, normals=normals, lame=s.lame,
                           triple=s.triple, mask=s.mask)


def test_gnorm_keeps_a_valid_nodes_error_beside_a_masked_nan(torus4):
    # V off at a valid node: gnorm_fd reads the error there, and still does
    # once a masked NaN node is added elsewhere on the grid
    t = torus4.triple
    V = t.V.copy()
    V[(Ellipsis,) + _BENT] += 1.0
    off = Triple(t.grid, t.class_map, t.v, t.h, V, analytic=t.analytic)
    gnorm = solve_linear(off, (0.1, 0.2), 1.0, (0.1, 0.2), (0.3, -0.2), substeps=4).reports["gnorm_fd"]
    assert gnorm > 0.1
    holed = _holed(ImmersionSample(torus4.grid, torus4.positions, tangents=torus4.tangents,
                                   normals=torus4.normals, triple=off), np.nan).triple
    sol = solve_linear(holed, (0.1, 0.2), 1.0, (0.1, 0.2), (0.3, -0.2), substeps=4)
    assert sol.reports["gnorm_fd"] == gnorm


def test_a_bent_normal_beside_a_masked_nan_is_not_parallel(torus4):
    with pytest.raises(NotParallel):
        attach_subbundle(_bent(torus4), (0,))
    with pytest.raises(NotParallel, match=r"residual 4\.\d+e\+00"):
        attach_subbundle(_holed(_bent(torus4), np.nan), (0,))


def test_dg_vs_vx_keeps_a_valid_nodes_error_beside_a_masked_nan(torus4):
    moved = ImmersionSample(torus4.grid, torus4.positions.copy(), tangents=torus4.tangents,
                            normals=torus4.normals, lame=torus4.lame, triple=torus4.triple)
    moved.positions[_BENT] += 1e-5
    err = moved.frame_residuals()["dg_vs_vX"]
    assert err > 1e-4
    assert _holed(moved, np.nan).frame_residuals()["dg_vs_vX"] == err


def test_checks_left_with_no_node_read_nan_or_fail(torus4):
    s = _holed(torus4, 0.7)
    s.mask[:] = False                   # the sample's and the triple's
    w = solve_linear(torus4.triple, (0.1, 0.2), 1.0, (0.1, 0.2), (0.3, -0.2), substeps=4)
    assert validate_triple(s.triple).failure == "no valid node"
    assert np.isnan(list(s.frame_residuals().values())).all()
    assert np.isnan(list(combescure_check(s, w).values())).all()
    with pytest.raises(NotParallel):
        attach_subbundle(s, (0,))
    with pytest.raises(ZeroLame):
        principal_normals_from_triple(s.triple, s)
    t = torus4.triple
    with pytest.raises(FrameDrift):
        reconstruct_frame(Triple(t.grid, t.class_map, t.v, t.h, t.V, mask=s.mask, analytic=t.analytic),
                          substeps=4)


def test_non_finite_values_at_read_nodes_fail():
    s = torus_seed(R=1.0, r=0.3, shape=(21, 21), u1_range=(0.1, 1.1), u2_range=(0.2, 1.2), ambient=4)
    s.tangents[0][_BENT] = np.nan
    assert np.isnan(s.frame_residuals()["gram"])
    s.normals[1][_BENT] = np.inf
    with pytest.raises(NotParallel):
        attach_subbundle(s, (0,))
    s.triple.v[(0,) + _BENT] = np.nan
    with pytest.raises(ZeroLame):
        principal_normals_from_triple(s.triple, s)


def _interior_mask_callers():
    """(module, enclosing function) of every `.interior_mask(` call in the package."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "dupin"
    calls = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[id(node)] = fn.name      # walked outer first, so the innermost wins
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "interior_mask"):
                calls.append((path.stem, owner.get(id(node), "<module>")))
    return calls


def test_only_the_node_rule_and_the_oracle_pick_interior_nodes():
    calls = _interior_mask_callers()
    assert ("net", "_fd_nodes") in calls
    assert {c for c in calls if c[0] != "verify"} == {("net", "_fd_nodes")}


def test_only_numerics_applies_the_stencils():
    # every finite difference is fd_axis or a row range of it: no module but
    # numerics calls the stencil kernels, and the oracle imports no other
    # finite-difference entry point than fd_axis and its row-range kernel
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "dupin"
    kernels, imported = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("_stencil_rows", "_stencil_sum") and path.stem != "numerics":
                    kernels.add((path.stem, name))
            elif isinstance(node, ast.ImportFrom) and path.stem == "verify" and node.module == "numerics":
                imported |= {a.name for a in node.names if "fd" in a.name or "stencil" in a.name}
    assert not kernels
    assert "_fd_rows" in imported and imported <= {"fd_axis", "_fd_rows"}
