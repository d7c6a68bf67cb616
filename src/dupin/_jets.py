"""Forward-mode first-derivative fields ("jets") on a product grid.

Base fields of a holonomic net carry *exact* partials given by the net
system, so every quantity assembled from them by rational arithmetic also
carries exact partials.  That keeps the transform recursion closed: the
rotation coefficients of a transformed net are exact derivatives of exact
Lame fields, never finite differences.

Arrays are stored in broadcastable form (singleton axes for directions a
field does not depend on); scalar jets have the rank of the product grid,
vector jets one extra trailing ambient axis.
"""

from __future__ import annotations

import numpy as np

__all__ = ["JS", "JV"]


def _padd(a, b):
    """Sum of two partials where either may be the scalar 0.0."""
    if isinstance(a, float) and a == 0.0:
        return b
    if isinstance(b, float) and b == 0.0:
        return a
    return a + b


def _merge(d1: dict, d2: dict, f) -> dict:
    out = {}
    for ax in set(d1) | set(d2):
        out[ax] = f(d1.get(ax, 0.0), d2.get(ax, 0.0))
    return out


class JS:
    """Scalar field with exact first partials (dict axis -> array)."""

    __slots__ = ("val", "d")

    def __init__(self, val, d=None):
        self.val = np.asarray(val, dtype=float)
        self.d = d or {}

    def part(self, ax: int):
        return self.d.get(ax, 0.0)

    def __add__(self, o):
        if isinstance(o, JS):
            return JS(self.val + o.val, _merge(self.d, o.d, _padd))
        return JS(self.val + o, dict(self.d))

    __radd__ = __add__

    def __neg__(self):
        return JS(-self.val, {ax: -p for ax, p in self.d.items()})

    def __sub__(self, o):
        return self + (-o if isinstance(o, JS) else -o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, JS):
            d = {}
            for ax in set(self.d) | set(o.d):
                da, db = self.d.get(ax, 0.0), o.d.get(ax, 0.0)
                term1 = 0.0 if isinstance(da, float) and da == 0.0 else da * o.val
                term2 = 0.0 if isinstance(db, float) and db == 0.0 else self.val * db
                d[ax] = _padd(term1, term2)
            return JS(self.val * o.val, d)
        return JS(self.val * o, {ax: p * o for ax, p in self.d.items()})

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, JS):
            return self * o.inv()
        return self * (1.0 / o)

    def __rtruediv__(self, o):
        return self.inv() * o

    def inv(self) -> "JS":
        iv = 1.0 / self.val
        return JS(iv, {ax: -p * iv * iv for ax, p in self.d.items()})


class JV:
    """Ambient-vector field with exact first partials."""

    __slots__ = ("val", "d")

    def __init__(self, val, d=None):
        self.val = np.asarray(val, dtype=float)
        self.d = d or {}

    def part(self, ax: int):
        return self.d.get(ax, 0.0)

    def __add__(self, o: "JV") -> "JV":
        return JV(self.val + o.val, _merge(self.d, o.d, _padd))

    def __neg__(self):
        return JV(-self.val, {ax: -p for ax, p in self.d.items()})

    def __sub__(self, o: "JV") -> "JV":
        return self + (-o)

    def scale(self, s) -> "JV":
        """Multiply by a scalar jet or plain number."""
        if isinstance(s, JS):
            sv = s.val[..., None]
            d = {}
            for ax in set(self.d) | set(s.d):
                dv, ds = self.d.get(ax, 0.0), s.d.get(ax, 0.0)
                term1 = 0.0 if isinstance(dv, float) and dv == 0.0 else sv * dv
                term2 = 0.0 if isinstance(ds, float) and ds == 0.0 else ds[..., None] * self.val
                d[ax] = _padd(term1, term2)
            return JV(sv * self.val, d)
        return JV(self.val * s, {ax: p * s for ax, p in self.d.items()})

    def dot(self, o: "JV") -> JS:
        d = {}
        for ax in set(self.d) | set(o.d):
            da, db = self.d.get(ax, 0.0), o.d.get(ax, 0.0)
            term1 = 0.0 if isinstance(da, float) and da == 0.0 else (da * o.val).sum(-1)
            term2 = 0.0 if isinstance(db, float) and db == 0.0 else (self.val * db).sum(-1)
            d[ax] = _padd(term1, term2)
        return JS((self.val * o.val).sum(-1), d)
