"""Property tests of the sample and triple loaders against mutated documents:
truncated, corrupted or retyped payloads, deleted keys, values of the wrong
type and foreign schemas, tangent counts and sff shapes that do not fit the
grid and the frame; and of `load_json` against mutated container files:
magic, header length, header bytes, array offsets and body bytes.  Only a
`DupinError` may escape a loader, and `dupin verify` on a rejected sample
file exits 2 with one line."""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupin import serialize
from dupin.cli import main
from dupin.errors import DupinError, ParseError
from dupin.seeds import torus_seed

# element types a payload may not have
_NOT_STORED = ["<f4", ">f8", "<i8", "<u2", "?", "<c16"]
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(),
    st.text(max_size=6), st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


def _base_sample():
    s = torus_seed(R=1.0, r=0.3, shape=(5, 6))
    s.mask = np.ones(s.grid.shape, dtype=bool)
    s.mask[2, 3] = False
    s.triple.mask = s.mask.copy()
    return serialize.sample_to_dict(s, provenance={"note": "fuzz base"})


_SAMPLE = _base_sample()
_TRIPLE = _SAMPLE["triple"]


def _recount(data, doc):
    """A copy of the sample document `doc` with a tangent count off the
    grid's rank, or an sff shape off (rank, normal count), and payloads of
    the drawn sizes; returns the copy and the count's key."""
    doc = copy.deepcopy(doc)
    grid = tuple(doc["grid"]["shape"])
    if data.draw(st.booleans()):
        n = data.draw(st.integers(0, 4).filter(lambda n: n != len(grid)))
        doc["n_tangents"] = n
        doc["tangents"] = serialize._arr(np.zeros((n,) + grid + (doc["ambient_dim"],)))
        return doc, "n_tangents"
    ab = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3))
                   .filter(lambda ab: ab != (len(grid), doc["n_normals"])))
    doc["sff_shape"] = list(ab)
    doc["sff"] = serialize._arr(np.zeros(ab + grid))
    return doc, "sff_shape"


def _mutate(data, doc):
    """One drawn mutation of a copy of `doc`; returns the copy and whether
    every draw of this mutation must be rejected."""
    ops = ["truncate", "corrupt", "retype", "delete", "swap", "schema"] + (["recount"] if "sff" in doc else [])
    op = data.draw(st.sampled_from(ops))
    if op == "recount":
        return _recount(data, doc)[0], True
    doc = copy.deepcopy(doc)
    documents = [doc] + ([doc["triple"]] if "triple" in doc else [])
    objects = documents + [d["grid"] for d in documents]
    if op in ("truncate", "corrupt", "retype"):
        obj = data.draw(st.sampled_from(documents))
        key = data.draw(st.sampled_from(sorted(k for k, v in obj.items() if isinstance(v, np.ndarray))))
        raw = np.frombuffer(obj[key].tobytes(), np.uint8).copy()      # the payload as load_json gives it
        i = data.draw(st.integers(0, len(raw) - 1))
        if op == "truncate":
            obj[key] = raw[:i]
        elif op == "corrupt":               # any byte value: a float or a mask byte may stay valid
            raw[i] = data.draw(st.integers(0, 255))
            obj[key] = raw
            return doc, False
        else:
            obj[key] = obj[key].astype(data.draw(st.sampled_from(_NOT_STORED)))
        return doc, True
    if op == "schema":
        obj = data.draw(st.sampled_from(documents))
        obj["schema"] = data.draw(st.text(max_size=20).filter(lambda t: t != obj["schema"]))
        return doc, True
    obj = data.draw(st.sampled_from(objects))
    key = data.draw(st.sampled_from(sorted(obj)))
    if op == "delete":
        del obj[key]
    else:
        obj[key] = data.draw(_JSON_VALUES)
    return doc, False


def _rejects(load, doc) -> bool:
    """Whether `load` rejects `doc`; any exception but a DupinError escapes."""
    try:
        load(doc)
    except DupinError:
        return True
    return False


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sample_loader_raises_only_dupin_errors(data):
    doc, must_reject = _mutate(data, _SAMPLE)
    rejected = _rejects(serialize.sample_from_dict, doc)
    assert rejected or not must_reject
    if rejected:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.json")
            serialize.dump_json(doc, path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["verify", "--in", path, "--out", os.path.join(tmp, "r.json")])
            assert rc == 2
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not os.path.exists(os.path.join(tmp, "r.json"))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_counts_off_the_grid_or_the_frame_rejected(data):
    doc, key = _recount(data, _SAMPLE)
    with pytest.raises(ParseError, match=repr(key)):
        serialize.sample_from_dict(doc)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_triple_loader_raises_only_dupin_errors(data):
    doc, must_reject = _mutate(data, _TRIPLE)
    assert _rejects(serialize.triple_from_dict, doc) or not must_reject


# field -> (document path, leading axes before the grid axes)
_FIELDS = {"positions": ((), 0), "tangents": ((), 1), "normals": ((), 1), "lame": ((), 1),
           "sff": ((), 2), "v": (("triple",), 1), "h": (("triple",), 2), "V": (("triple",), 2)}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_FIELDS)), st.integers(0, 10**6),
       st.sampled_from([float("nan"), float("inf"), -float("inf")]))
def test_non_finite_values_rejected_only_at_unmasked_nodes(key, at, value):
    # one non-finite value anywhere in one field of the sample or its triple
    doc = copy.deepcopy(_SAMPLE)
    path, lead = _FIELDS[key]
    obj = doc["triple"] if path else doc
    shape = {"positions": (5, 6, 3), "tangents": (2, 5, 6, 3), "normals": (1, 5, 6, 3),
             "lame": (2, 5, 6), "sff": (2, 1, 5, 6), "v": (2, 5, 6), "h": (2, 2, 5, 6),
             "V": (2, 1, 5, 6)}[key]
    a = obj[key].reshape(shape).copy()
    idx = np.unravel_index(at % a.size, shape)
    a[idx] = value
    obj[key] = serialize._arr(a)
    node = idx[lead:lead + 2]
    if node == (2, 3):                       # the masked node: accepted as it is
        serialize.sample_from_dict(doc)
        return
    where = "triple" if path else "sample"
    message = f"{where} has non-finite {key} at 1 unmasked nodes"
    with pytest.raises(ParseError, match=message):
        serialize.sample_from_dict(doc)
    if path:
        with pytest.raises(ParseError, match=message):
            serialize.triple_from_dict(obj)


def test_unmutated_documents_load():
    assert not _rejects(serialize.sample_from_dict, copy.deepcopy(_SAMPLE))
    assert not _rejects(serialize.triple_from_dict, copy.deepcopy(_TRIPLE))


@pytest.mark.parametrize("value", [None, [1], "x"])
@pytest.mark.parametrize("where", ["sample", "triple", "grid", "triple grid"])
def test_non_object_documents_rejected(where, value):
    doc = copy.deepcopy(_SAMPLE)
    if where == "sample":
        doc = value
    elif where == "triple grid":
        doc["triple"]["grid"] = value
    else:
        doc[where] = value
    with pytest.raises(ParseError):
        serialize.sample_from_dict(doc)


@pytest.mark.parametrize("classes", [[10**12], [], [0, 0], ["a", 1], 3])
def test_bad_class_maps_rejected(classes):
    doc = copy.deepcopy(_TRIPLE)
    doc["classes"] = classes
    with pytest.raises(DupinError):
        serialize.triple_from_dict(doc)


@pytest.mark.parametrize("key,value", [("ambient_dim", -3), ("ambient_dim", float("inf")),
                                       ("n_tangents", "x"), ("sff_shape", [1, 2, 3])])
def test_bad_counts_rejected(key, value):
    doc = copy.deepcopy(_SAMPLE)
    doc[key] = value
    with pytest.raises(ParseError, match=repr(key)):
        serialize.sample_from_dict(doc)


def _file_of(doc) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        serialize.dump_json(doc, path)
        with open(path, "rb") as f:
            return f.read()


_FILE = _file_of(_SAMPLE)
_START = 11 + int.from_bytes(_FILE[7:11], "little")      # where the body begins


def _with_header(header: dict, body: bytes) -> bytes:
    """A container of header and body with a correct header length."""
    text = json.dumps(header, indent=1).encode() + b"\n"
    text += b" " * (-(11 + len(text)) % 8)
    return _FILE[:7] + len(text).to_bytes(4, "little") + text + body


def _refs(obj):
    """The array references of a header, in document order."""
    for value in obj.values():
        if isinstance(value, dict):
            yield from [value] if value.keys() == {"offset", "nbytes"} else _refs(value)


def _mutate_file(data) -> tuple:
    """One drawn mutation of _FILE's bytes; returns them and whether every
    draw of this mutation must be rejected."""
    op = data.draw(st.sampled_from(["magic", "length_past_eof", "length", "header", "offsets",
                                    "body_cut", "body_extended", "body_byte"]))
    f = bytearray(_FILE)
    if op == "magic":
        i = data.draw(st.integers(0, 6))
        f[i] = data.draw(st.integers(0, 255).filter(lambda b: b != f[i]))
        return bytes(f), True
    if op in ("length_past_eof", "length"):
        lo = len(f) - 10 if op == "length_past_eof" else 0
        n = data.draw(st.integers(lo, 2**32 - 1).filter(lambda n: n != _START - 11))
        f[7:11] = n.to_bytes(4, "little")
        return bytes(f), op == "length_past_eof"
    if op == "header":
        i = data.draw(st.integers(11, _START - 1))
        f[i] = data.draw(st.integers(0, 255))
        return bytes(f), False
    if op == "offsets":
        header = json.loads(_FILE[11:_START])
        ref = data.draw(st.sampled_from(list(_refs(header))))
        key = data.draw(st.sampled_from(["offset", "nbytes"]))
        ref[key] = data.draw(st.one_of(st.integers(-8, 2 * len(f)), st.floats(0, 64), st.booleans(),
                                       st.none(), st.text(max_size=3)).filter(lambda v: v != ref[key]))
        return _with_header(header, _FILE[_START:]), True
    if op == "body_cut":
        return _FILE[:data.draw(st.integers(_START, len(f) - 1))], True
    if op == "body_extended":
        return _FILE + bytes(data.draw(st.integers(1, 16))), True
    i = data.draw(st.integers(_START, len(f) - 1))
    f[i] = data.draw(st.integers(0, 255))
    return bytes(f), False


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_container_mutations_raise_only_dupin_errors(data):
    raw, must_reject = _mutate_file(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bad.json")
        with open(path, "wb") as f:
            f.write(raw)
        rejected = _rejects(lambda p: serialize.sample_from_dict(serialize.load_json(p)), path)
        assert rejected or not must_reject
        if rejected:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["verify", "--in", path, "--out", os.path.join(tmp, "r.json")])
            assert rc == 2
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not os.path.exists(os.path.join(tmp, "r.json"))


def test_unmutated_container_loads_bit_exact():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.json")
        with open(path, "wb") as f:
            f.write(_FILE)
        doc = serialize.load_json(path)
    assert _file_of(doc) == _FILE
    back = serialize.sample_from_dict(doc)
    assert np.array_equal(back.positions, _SAMPLE["positions"])


@pytest.mark.parametrize("how,message", [
    ("overlap", r"array 'mask' at offset \d+ of 30 bytes, not at a multiple of 8 from byte \d+ on"),
    ("misaligned", r"array 'mask' at offset \d+ of 30 bytes, not at a multiple of 8 from byte \d+ on"),
    ("unaligned_body", r"a header ending at byte \d+ of \d+, or not at a multiple of 8"),
    ("trailing", r"a body of \d+ bytes, where the header says \d+"),
    ("short", r"a body of \d+ bytes, where the header says \d+"),
])
def test_container_layout_errors_rejected(tmp_path, how, message):
    # each file differs from a loadable one in its layout alone
    header, body = json.loads(_FILE[11:_START]), _FILE[_START:]
    last, before = list(_refs(header))[-1], list(_refs(header))[-2]
    if how == "overlap":                     # the last array starts where the one before it does
        last["offset"] = before["offset"]
        body = body[:last["offset"] + last["nbytes"]]
    elif how == "misaligned":                # the last array 4 bytes later, the body 4 bytes longer
        body = body[:last["offset"]] + bytes(4) + body[last["offset"]:]
        last["offset"] += 4
    elif how == "trailing":
        body += bytes(8)
    elif how == "short":
        body = body[:-1]
    raw = _with_header(header, body)
    if how == "unaligned_body":              # 4 more spaces after the header's JSON
        raw = _FILE[:7] + (_START - 7).to_bytes(4, "little") + _FILE[11:_START] + b"    " + body
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=rf"bad\.json is not a dupin artifact \({message}\)"):
        serialize.load_json(path)
