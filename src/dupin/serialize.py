"""Versioned artifact formats, residual CSV rows and mesh export.

A sample or triple document holds each array field as a NumPy array of its
stored type in row-major node order: ``<f8`` values, ``|u1`` 0/1 masks.
``dump_json`` writes such a document as a container: the magic line, the
header length (4 bytes, little-endian), the document as ``indent=1`` JSON with
each array replaced by ``{"offset", "nbytes"}`` and padded with spaces and a
newline to a multiple of 8 bytes, then the body, the arrays' raw bytes at
those offsets, multiples of 8.  Any other document is written as
``json.dump(doc, f, indent=1)`` plus a newline.  Round trips are bit-exact,
NaN payloads and signed zeros included, and identical inputs give
bit-identical files.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os

import numpy as np

from .errors import OutputError, ParseError, UnsupportedSlice
from .net import _GRAM_TOL, ClassMap, ImmersionSample, Triple, _gram_defect
from .numerics import TensorGrid

TRIPLE_SCHEMA = "dupin/triple@3"
SAMPLE_SCHEMA = "dupin/sample@3"
PIPELINE_SCHEMA = "dupin/pipeline@1"

__all__ = [
    "TRIPLE_SCHEMA", "SAMPLE_SCHEMA", "PIPELINE_SCHEMA", "grid_to_dict", "grid_from_dict",
    "triple_to_dict", "triple_from_dict", "sample_to_dict", "sample_from_dict", "dump_json",
    "load_json", "spec_hash", "residual_csv", "export_obj", "export_ply", "export_csv",
]


def grid_to_dict(g: TensorGrid) -> dict:
    return {"shape": list(g.shape), "spacings": list(g.spacings), "origins": list(g.origins)}


def grid_from_dict(d: dict) -> TensorGrid:
    try:
        return TensorGrid(d["shape"], d["spacings"], d.get("origins"))
    except KeyError as e:
        raise ParseError(f"grid document missing key {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"malformed grid document ({e})") from None


# stored element types of the array fields, values and masks; load_json gives raw bytes
_VALUES = np.dtype("<f8")
_MASK = _BYTES = np.dtype("|u1")


def _arr(a: np.ndarray, dtype: np.dtype = _VALUES) -> np.ndarray:
    """a as a C-contiguous array of the stored type; a itself when it is one."""
    return np.ascontiguousarray(a, dtype=dtype)


def triple_to_dict(t: Triple) -> dict:
    out = {"schema": TRIPLE_SCHEMA, "grid": grid_to_dict(t.grid), "classes": list(t.class_map.classes),
           "n_normals": t.n_normals, "v": _arr(t.v), "h": _arr(t.h), "V": _arr(t.V)}
    if t.mask is not None:
        out["mask"] = _arr(t.mask, _MASK)
    return out


def _get(d: dict, key: str, where: str):
    try:
        return d[key]
    except KeyError:
        raise ParseError(f"{where} document missing key {key!r}") from None


def _check_schema(d, schema: str) -> None:
    got = d.get("schema") if isinstance(d, dict) else None
    if got != schema:
        raise ParseError(f"expected schema {schema}, got {got!r}")


def _count(value, key: str, where: str) -> int:
    """A non-negative integer metadata entry, or ParseError."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):
        if (n := int(value)) >= 0:
            return n
    raise ParseError(f"{where} field {key!r} is not a count ({value!r:.40})")


def _field(d: dict, key: str, shape: tuple, where: str,
           stored: np.dtype = _VALUES, dtype=float) -> np.ndarray:
    """An array entry, of `stored` elements or of the raw bytes load_json
    gives, as a writable `dtype` array of the grid-derived shape, or
    ParseError.  Writable raw bytes are taken over and marked read-only in
    the document, so a later read of the same document copies them; a typed
    array is copied."""
    p = _get(d, key, where)
    try:
        if not isinstance(p, np.ndarray) or p.dtype not in (stored, _BYTES):
            raise TypeError(f"a {type(p).__name__} is not a byte field")
        a = p.reshape(-1).view(stored)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{where} field {key!r} is not a numeric array ({e})") from None
    if a.size != math.prod(shape):
        raise ParseError(f"{where} field {key!r} has {a.size} values, "
                         f"expected shape {tuple(shape)}")
    out = a.reshape(shape).astype(dtype, copy=p.dtype != _BYTES or not p.flags.writeable)
    if np.may_share_memory(out, p):
        p.flags.writeable = False
    return out


def _check_finite(where: str, key: str, a: np.ndarray, lead: int, mask: np.ndarray | None, D: int) -> None:
    """ParseError unless the field a (lead axes, grid axes, D of them, then
    value axes) is finite at every node that mask leaves valid."""
    if np.isfinite(a).all():
        return
    bad = ~np.isfinite(a).all(axis=tuple(range(lead)) + tuple(range(lead + D, a.ndim)))
    if mask is not None:
        bad &= mask
    if bad.any():
        raise ParseError(f"{where} has non-finite {key} at {int(bad.sum())} unmasked nodes")


def triple_from_dict(d: dict) -> Triple:
    _check_schema(d, TRIPLE_SCHEMA)
    g = grid_from_dict(_get(d, "grid", "triple"))
    classes = _get(d, "classes", "triple")
    try:
        cm = ClassMap(classes)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"triple field 'classes' is not a class map ({e})") from None
    k, D, R = cm.n_classes, g.ndim, _count(_get(d, "n_normals", "triple"), "n_normals", "triple")
    v = _field(d, "v", (k,) + g.shape, "triple")
    h = _field(d, "h", (D, k) + g.shape, "triple")
    V = _field(d, "V", (k, R) + g.shape, "triple")
    mask = None
    if "mask" in d:
        mask = _field(d, "mask", g.shape, "triple", _MASK, bool)
    for key, a, lead in (("v", v, 1), ("h", h, 2), ("V", V, 2)):
        _check_finite("triple", key, a, lead, mask, D)
    return Triple(g, cm, v, h, V, mask=mask)


def sample_to_dict(s: ImmersionSample, provenance: dict | None = None) -> dict:
    out = {"schema": SAMPLE_SCHEMA, "grid": grid_to_dict(s.grid), "ambient_dim": s.ambient_dim,
           "positions": _arr(s.positions)}
    if s.tangents is not None:
        out["tangents"] = _arr(s.tangents)
        out["n_tangents"] = s.tangents.shape[0]
    if s.normals is not None:
        out["normals"] = _arr(s.normals)
        out["n_normals"] = s.normals.shape[0]
    if s.lame is not None:
        out["lame"] = _arr(s.lame)
    if s.sff is not None:
        out["sff"] = _arr(s.sff)
        out["sff_shape"] = list(s.sff.shape[:2])
    if s.triple is not None:
        out["triple"] = triple_to_dict(s.triple)
    if s.mask is not None:
        out["mask"] = _arr(s.mask, _MASK)
    if provenance:
        out["provenance"] = provenance
    return out


def sample_from_dict(d: dict) -> ImmersionSample:
    _check_schema(d, SAMPLE_SCHEMA)
    g = grid_from_dict(_get(d, "grid", "sample"))
    N = _count(_get(d, "ambient_dim", "sample"), "ambient_dim", "sample")
    pos = _field(d, "positions", g.shape + (N,), "sample")
    tangents = normals = lame = sff = mask = triple = None
    if "tangents" in d:
        nt = _count(_get(d, "n_tangents", "sample"), "n_tangents", "sample")
        if nt != g.ndim:
            raise ParseError(f"sample field 'n_tangents' is {nt}, not the grid's rank {g.ndim}")
        tangents = _field(d, "tangents", (nt,) + g.shape + (N,), "sample")
    if "normals" in d:
        nn = _count(_get(d, "n_normals", "sample"), "n_normals", "sample")
        normals = _field(d, "normals", (nn,) + g.shape + (N,), "sample")
    if "lame" in d:
        lame = _field(d, "lame", (g.ndim,) + g.shape, "sample")
    if "sff" in d:
        if normals is None:
            raise ParseError("sample has 'sff' but no normals")
        ab = _get(d, "sff_shape", "sample")
        if not isinstance(ab, list) or len(ab) != 2:
            raise ParseError(f"sample field 'sff_shape' is not a pair of counts ({ab!r:.40})")
        a, b = (_count(x, "sff_shape", "sample") for x in ab)
        if (a, b) != (g.ndim, len(normals)):
            raise ParseError(f"sample field 'sff_shape' is {[a, b]}, not the grid's rank and "
                             f"the normal count {[g.ndim, len(normals)]}")
        sff = _field(d, "sff", (a, b) + g.shape, "sample")
    if "triple" in d:
        triple = triple_from_dict(d["triple"])
        if triple.grid != g:
            raise ParseError("sample's triple is not on the sample's grid")
    if "mask" in d:
        mask = _field(d, "mask", g.shape, "sample", _MASK, bool)
    for key, a, lead in (("positions", pos, 0), ("tangents", tangents, 1), ("normals", normals, 1),
                         ("lame", lame, 1), ("sff", sff, 2)):
        if a is not None:
            _check_finite("sample", key, a, lead, mask, g.ndim)
    frames = [f for f in (tangents, normals) if f is not None]
    if frames:
        defect = _gram_defect(frames, np.ones(g.shape, dtype=bool) if mask is None else mask)
        if not defect <= _GRAM_TOL:
            raise ParseError(f"sample frame is not orthonormal at valid nodes "
                             f"(Gram defect {defect:.3e} exceeds {_GRAM_TOL:g})")
    return ImmersionSample(g, pos, tangents=tangents, normals=normals, lame=lame,
                           sff=sff, triple=triple, mask=mask)


_MAGIC = b"\x93DUPIN\n"
_ALIGN = 8          # of the body's start and of every array in it


def _is_ref(value) -> bool:
    return isinstance(value, dict) and value.keys() == {"offset", "nbytes"}


def _split(obj, arrays: list):
    """obj with every array in it and in its nested dicts replaced by its
    {"offset", "nbytes"} in the body; the arrays are appended to arrays."""
    if isinstance(obj, np.ndarray):
        offset = sum(-(-a.nbytes // _ALIGN) * _ALIGN for a in arrays)
        arrays.append(np.ascontiguousarray(obj))
        return {"offset": offset, "nbytes": obj.nbytes}
    if _is_ref(obj):                # it would read back as an array
        raise OutputError(f"cannot write a document holding the dict {obj!r:.60}")
    return {key: _split(value, arrays) for key, value in obj.items()} if isinstance(obj, dict) else obj


@contextlib.contextmanager
def _writing(path, mode: str = "w"):
    """The file at path, open for writing as UTF-8 text or as bytes; an
    OSError while it is opened or written becomes an OutputError."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as f:
            yield f
    except OSError as e:            # a missing directory, a directory, no permission
        raise OutputError(f"cannot write {path} ({e.strerror or e})") from None


def dump_json(obj: dict, path) -> None:
    """Write obj as a container when it holds arrays (see the module
    docstring), else as json.dump(obj, f, indent=1) plus a newline."""
    arrays = []
    header = _split(obj, arrays)
    if not arrays:
        with _writing(path) as f:
            f.write(json.dumps(obj, indent=1) + "\n")
        return
    text = json.dumps(header, indent=1).encode("utf-8")
    text += b" " * (-(len(_MAGIC) + 5 + len(text)) % _ALIGN) + b"\n"
    with _writing(path, "wb") as f:
        f.write(_MAGIC + len(text).to_bytes(4, "little") + text)
        for a in arrays:
            f.write(bytes(-f.tell() % _ALIGN))
            f.write(a)              # the array's own buffer, not a copy of it


def _refs(obj):
    """The (dict, key) of every array reference in obj's nested dicts, in document order."""
    for key, value in obj.items() if isinstance(obj, dict) else ():
        yield from [(obj, key)] if _is_ref(value) else _refs(value)


def _load_container(f, path) -> dict:
    """The document in the container f, read past its magic, each array a
    writable uint8 array of its body bytes, or ParseError."""
    def bad(why: str) -> ParseError:
        return ParseError(f"{path} is not a dupin artifact ({why})")

    size = os.fstat(f.fileno()).st_size
    start = len(_MAGIC) + 4 + int.from_bytes(f.read(4), "little")
    if start > size or start % _ALIGN:
        raise bad(f"a header ending at byte {start} of {size}, or not at a multiple of {_ALIGN}")
    try:
        doc = json.loads(f.read(start - len(_MAGIC) - 4).decode("utf-8"))
        refs, end = list(_refs(doc)), 0
    except (ValueError, RecursionError) as e:      # not JSON, not UTF-8, nested too deep
        raise bad(f"a header that is not JSON: {e}") from None
    for obj, key in refs:
        offset, nbytes = obj[key]["offset"], obj[key]["nbytes"]
        if not (type(offset) is type(nbytes) is int and nbytes >= 0 and offset >= end
                and offset % _ALIGN == 0):
            raise bad(f"array {key!r} at offset {offset!r:.20} of {nbytes!r:.20} bytes, "
                      f"not at a multiple of {_ALIGN} from byte {end} on")
        end = offset + nbytes
    if size - start != end:
        raise bad(f"a body of {size - start} bytes, where the header says {end}")
    for obj, key in refs:
        f.seek(start + obj[key]["offset"])
        a = obj[key] = np.empty(obj[key]["nbytes"], dtype=np.uint8)
        if f.readinto(a) != a.size:
            raise bad("a body cut while it was read")
    return doc


def load_json(path) -> dict:
    """The document in the file at path; each array of a container is a
    writable uint8 array of its raw bytes, which the first sample_from_dict
    or triple_from_dict call on the document takes over."""
    try:
        f = open(path, "rb")
    except OSError as e:            # a missing file, a directory, no permission
        raise ParseError(f"cannot read {path} ({e.strerror})") from None
    with f:
        head = f.read(len(_MAGIC))
        if head == _MAGIC:
            return _load_container(f, path)
        try:
            return json.loads((head + f.read()).decode("utf-8"))
        except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, nested too deep
            raise ParseError(f"{path} is not a JSON document ({e})") from None


def spec_hash(obj: dict) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def residual_csv(rows, path) -> None:
    """Rows of (equation id, max residual, masked fraction)."""
    with _writing(path) as f:
        f.write("equation,max_residual,masked_fraction\n")
        f.writelines(f"{eq},{res!r},{frac!r}\n" for eq, res, frac in rows)


def _mesh_slice(s: ImmersionSample, slice_idx):
    """Positions and mask of a 2-d slice for mesh export."""
    if s.grid.ndim == 2:
        return s.positions, s.mask
    if slice_idx is None:
        raise UnsupportedSlice("mesh export of a >2-d sample needs a slice specification")
    sel = tuple(slice(None) if slice_idx[d] is None else int(slice_idx[d]) for d in range(s.grid.ndim))
    if sel.count(slice(None)) != 2:
        raise UnsupportedSlice("mesh slice must leave exactly two axes free")
    return s.positions[sel], None if s.mask is None else s.mask[sel]


def _mesh_data(s: ImmersionSample, slice_idx, coords):
    """Vertices (n1 * n2, 3) and quad faces (F, 4) as lists of Python numbers."""
    pos, mask = _mesh_slice(s, slice_idx)
    pos = np.pad(pos, [(0, 0)] * (pos.ndim - 1) + [(0, max(3 - pos.shape[-1], 0))])
    coords = tuple(coords) if coords is not None else (0, 1, 2)
    if len(coords) != 3 or max(coords) >= pos.shape[-1]:
        raise UnsupportedSlice("mesh export needs three valid coordinate indices")
    xyz = pos[..., list(coords)]
    idx = np.arange(xyz.shape[0] * xyz.shape[1]).reshape(xyz.shape[:2])
    quads = np.stack([idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]], axis=-1)
    if mask is not None:            # a cell with a masked corner is omitted
        quads = quads[mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]]
    return xyz.reshape(-1, 3).tolist(), quads.reshape(-1, 4).tolist()


def export_obj(s: ImmersionSample, path, slice_idx=None, coords=None) -> dict:
    """Quad mesh of a 2-d (slice of a) sample; masked cells are omitted."""
    verts, faces = _mesh_data(s, slice_idx, coords)
    with _writing(path) as f:
        f.writelines(f"v {x!r} {y!r} {z!r}\n" for x, y, z in verts)
        f.writelines(f"f {a + 1} {b + 1} {c + 1} {d + 1}\n" for a, b, c, d in faces)
    return {"vertices": len(verts), "faces": len(faces)}


def export_ply(s: ImmersionSample, path, slice_idx=None, coords=None) -> dict:
    verts, faces = _mesh_data(s, slice_idx, coords)
    with _writing(path) as f:
        f.write(f"ply\nformat ascii 1.0\nelement vertex {len(verts)}\nproperty float x\n"
                f"property float y\nproperty float z\nelement face {len(faces)}\n"
                "property list uchar int vertex_indices\nend_header\n")
        f.writelines(f"{x!r} {y!r} {z!r}\n" for x, y, z in verts)
        f.writelines(f"4 {a} {b} {c} {d}\n" for a, b, c, d in faces)
    return {"vertices": len(verts), "faces": len(faces)}


def export_csv(s: ImmersionSample, path) -> dict:
    """Full node data: one row per node in row-major order."""
    g, N = s.grid, s.ambient_dim
    cols = [f"u{d}" for d in range(g.ndim)] + [f"x{i}" for i in range(N)] + ["valid"]
    U = np.stack([m.reshape(-1) for m in g.meshgrid()], axis=1).tolist()
    P = s.positions.reshape(-1, N).tolist()
    with _writing(path) as f:
        f.write(",".join(cols) + "\n")
        for u, x, valid in zip(U, P, s.valid().reshape(-1).tolist()):
            f.write(",".join([repr(a) for a in u + x] + [str(int(valid))]) + "\n")
    return {"rows": len(U)}
