"""Closed-form seed patches: circles, cylinders, tori, spheres, ellipsoids.

Every constructor returns an ImmersionSample on a uniform grid; the Dupin
seeds also carry an exact Triple with analytic callables so downstream line
integrals can evaluate coefficients at arbitrary points.

Orientation convention: normals point outward; with the package sign rule
A_xi = -(d xi)_tangent / v this makes V negative on convex seeds (circle:
V_1^1 = -1).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .net import ClassMap, ImmersionSample, Triple
from .numerics import TensorGrid

__all__ = [
    "circle_seed",
    "cylinder_seed",
    "torus_seed",
    "flat_seed",
    "sphere_patch",
    "ellipsoid_patch",
    "SEED_BUILDERS",
]


def _pad(vecs: np.ndarray, ambient: int) -> np.ndarray:
    """Zero-pad the last axis of an (..., n)-array up to `ambient`."""
    n = vecs.shape[-1]
    if n == ambient:
        return vecs
    if n > ambient:
        raise DimensionMismatch(f"a seed spanning R^{n} does not fit in R^{ambient}")
    out = np.zeros(vecs.shape[:-1] + (ambient,))
    out[..., :n] = vecs
    return out


def _analytic_triple(grid: TensorGrid, evaluate) -> Triple:
    """Triple of a closed-form seed: the node arrays are `evaluate` at the
    grid nodes, and `evaluate` stays on as its analytic provider."""
    nodes = evaluate(np.stack(grid.meshgrid(), axis=-1))
    return Triple(grid, ClassMap.simple(len(nodes["v"])), nodes["v"], nodes["h"], nodes["V"], analytic=evaluate)


def _const_normals(first: int, ambient: int, shape: tuple) -> list:
    """Constant frame fields e_{first+1}, ..., e_{ambient} broadcast to grid."""
    out = []
    for axis in range(first, ambient):
        e = np.zeros(ambient)
        e[axis] = 1.0
        out.append(np.broadcast_to(e, shape + (ambient,)).copy())
    return out


def circle_seed(radius: float = 1.0, n: int = 21, u_range=(0.0, 2.0 * np.pi),
                ambient: int = 3, center=None) -> ImmersionSample:
    """Arc of a circle of the given radius in the e1-e2 plane.

    1-Dupin seed: single class, v = radius, h = 0, V = (-1, 0, ..., 0)
    against the outward radial normal xi_1 and constant normals e_3, ...
    """
    if ambient < 3:
        raise DimensionMismatch("circle seed needs ambient dimension >= 3")
    u0, u1 = float(u_range[0]), float(u_range[1])
    grid = TensorGrid((n,), ((u1 - u0) / (n - 1),), (u0,))
    u = grid.axis_coords(0)
    cu, su = np.cos(u), np.sin(u)
    pos = _pad(radius * np.stack([cu, su], axis=-1), ambient)
    if center is not None:
        center = np.asarray(center, dtype=float)
        if center.shape != (ambient,):
            raise DimensionMismatch(f"circle center of shape {center.shape} in R^{ambient}")
        pos = pos + center
    X = _pad(np.stack([-su, cu], axis=-1), ambient)[None]
    xi_rad = _pad(np.stack([cu, su], axis=-1), ambient)
    normals = np.stack([xi_rad] + _const_normals(2, ambient, grid.shape))
    R = normals.shape[0]
    k = 1

    def _eval(pts):
        base = pts.shape[:-1]
        return {
            "v": np.full((k,) + base, float(radius)),
            "h": np.zeros((1, k) + base),
            "V": np.concatenate([np.full((k, 1) + base, -1.0), np.zeros((k, R - 1) + base)], axis=1),
        }

    return ImmersionSample(grid, pos, tangents=X, normals=normals, triple=_analytic_triple(grid, _eval))


def cylinder_seed(radius: float = 1.0, shape=(21, 21), u_range=(0.0, 2.0 * np.pi),
                  z_range=(0.0, 2.0), ambient: int = 3) -> ImmersionSample:
    """Round cylinder patch (circle direction first, ruling second)."""
    grid = TensorGrid(
        (shape[0], shape[1]),
        ((u_range[1] - u_range[0]) / (shape[0] - 1), (z_range[1] - z_range[0]) / (shape[1] - 1)),
        (u_range[0], z_range[0]),
    )
    U, Z = grid.meshgrid()
    cu, su = np.cos(U), np.sin(U)
    pos = _pad(np.stack([radius * cu, radius * su, Z], axis=-1), ambient)
    X1 = _pad(np.stack([-su, cu, np.zeros_like(U)], axis=-1), ambient)
    X2 = _pad(np.broadcast_to(np.array([0.0, 0.0, 1.0]), grid.shape + (3,)).copy(), ambient)
    xi1 = _pad(np.stack([cu, su, np.zeros_like(U)], axis=-1), ambient)
    normals = np.stack([xi1] + _const_normals(3, ambient, grid.shape))
    R = normals.shape[0]
    k = 2

    def _eval(pts):
        base = pts.shape[:-1]
        v_ = np.stack([np.full(base, float(radius)), np.ones(base)])
        V_ = np.zeros((k, R) + base)
        V_[0, 0] = -1.0
        return {"v": v_, "h": np.zeros((2, k) + base), "V": V_}

    return ImmersionSample(grid, pos, tangents=np.stack([X1, X2]), normals=normals,
                           triple=_analytic_triple(grid, _eval))


def torus_seed(R: float = 1.0, r: float = 0.3, shape=(21, 21),
               u1_range=(0.0, 2.0 * np.pi), u2_range=(0.0, 2.0 * np.pi),
               ambient: int = 3) -> ImmersionSample:
    """Torus of revolution (R + r cos u2) about e3; principal chart.

    Triple: v = (R + r cos u2, r), h_{21} = -sin u2 (others zero),
    V_1^1 = -cos u2, V_2^1 = -1 against the outward normal.
    """
    grid = TensorGrid(
        (shape[0], shape[1]),
        ((u1_range[1] - u1_range[0]) / (shape[0] - 1), (u2_range[1] - u2_range[0]) / (shape[1] - 1)),
        (u1_range[0], u2_range[0]),
    )
    U1, U2 = grid.meshgrid()
    c1, s1, c2, s2 = np.cos(U1), np.sin(U1), np.cos(U2), np.sin(U2)
    w = R + r * c2
    pos = _pad(np.stack([w * c1, w * s1, r * s2], axis=-1), ambient)
    X1 = _pad(np.stack([-s1, c1, np.zeros_like(U1)], axis=-1), ambient)
    X2 = _pad(np.stack([-s2 * c1, -s2 * s1, c2], axis=-1), ambient)
    xi1 = _pad(np.stack([c2 * c1, c2 * s1, s2], axis=-1), ambient)
    normals = np.stack([xi1] + _const_normals(3, ambient, grid.shape))
    Rn = normals.shape[0]
    k = 2

    def _eval(pts):
        base = pts.shape[:-1]
        uu2 = pts[..., 1]
        cc2, ss2 = np.cos(uu2), np.sin(uu2)
        v_ = np.stack([R + r * cc2, np.full(base, float(r))])
        h_ = np.zeros((2, k) + base)
        h_[1, 0] = -ss2
        V_ = np.zeros((k, Rn) + base)
        V_[0, 0] = -cc2
        V_[1, 0] = -1.0
        return {"v": v_, "h": h_, "V": V_}

    return ImmersionSample(grid, pos, tangents=np.stack([X1, X2]), normals=normals,
                           triple=_analytic_triple(grid, _eval))


def flat_seed(shape=(11, 11), extent=(1.0, 1.0), ambient: int = 3) -> ImmersionSample:
    """Flat plane patch in the e1-e2 plane (zero second fundamental form)."""
    grid = TensorGrid(shape, (extent[0] / (shape[0] - 1), extent[1] / (shape[1] - 1)))
    U1, U2 = grid.meshgrid()
    pos = _pad(np.stack([U1, U2, np.zeros_like(U1)], axis=-1), ambient)
    X1 = _pad(np.broadcast_to(np.array([1.0, 0, 0]), grid.shape + (3,)).copy(), ambient)
    X2 = _pad(np.broadcast_to(np.array([0, 1.0, 0]), grid.shape + (3,)).copy(), ambient)
    normals = np.stack(_const_normals(2, ambient, grid.shape))
    Rn = normals.shape[0]
    k = 2

    def _eval(pts):
        base = pts.shape[:-1]
        return {"v": np.ones((k,) + base), "h": np.zeros((2, k) + base), "V": np.zeros((k, Rn) + base)}

    return ImmersionSample(grid, pos, tangents=np.stack([X1, X2]), normals=normals,
                           triple=_analytic_triple(grid, _eval))


def sphere_patch(radius: float = 1.0, shape=(21, 21), u_range=(0.0, 1.2),
                 v_range=(-0.5, 0.5), ambient: int = 3) -> ImmersionSample:
    """Round-sphere patch in the longitude/latitude chart (positions + frames)."""
    grid = TensorGrid(
        shape,
        ((u_range[1] - u_range[0]) / (shape[0] - 1), (v_range[1] - v_range[0]) / (shape[1] - 1)),
        (u_range[0], v_range[0]),
    )
    U, W = grid.meshgrid()
    pos = _pad(radius * np.stack([np.cos(U) * np.cos(W), np.sin(U) * np.cos(W), np.sin(W)], axis=-1), ambient)
    X1 = _pad(np.stack([-np.sin(U), np.cos(U), np.zeros_like(U)], axis=-1), ambient)
    X2 = _pad(np.stack([-np.cos(U) * np.sin(W), -np.sin(U) * np.sin(W), np.cos(W)], axis=-1), ambient)
    xi = pos / radius
    normals = np.stack([_pad(xi[..., :3], ambient)] + _const_normals(3, ambient, grid.shape))
    lame = np.stack([radius * np.cos(W), np.full(grid.shape, float(radius))])
    return ImmersionSample(grid, pos, tangents=np.stack([X1, X2]), normals=normals, lame=lame)


def ellipsoid_patch(a: float = 1.0, b: float = 0.7, c: float = 0.5, shape=(21, 21),
                    u_range=(0.3, 1.0), v_range=(0.2, 0.8), ambient: int = 3) -> ImmersionSample:
    """Generic triaxial ellipsoid patch, positions only (non-Dupin control)."""
    grid = TensorGrid(
        shape,
        ((u_range[1] - u_range[0]) / (shape[0] - 1), (v_range[1] - v_range[0]) / (shape[1] - 1)),
        (u_range[0], v_range[0]),
    )
    U, W = grid.meshgrid()
    pos = _pad(np.stack([a * np.cos(U) * np.cos(W), b * np.sin(U) * np.cos(W), c * np.sin(W)], axis=-1), ambient)
    return ImmersionSample(grid, pos)


SEED_BUILDERS = {
    "circle": circle_seed,
    "cylinder": cylinder_seed,
    "torus": torus_seed,
    "flat": flat_seed,
    "sphere": sphere_patch,
    "ellipsoid": ellipsoid_patch,
}
