"""Property tests of the sample and triple loaders against mutated documents:
truncated or corrupted payloads, deleted keys, values of the wrong type and
foreign schemas, tangent counts and sff shapes that do not fit the grid and
the frame.  Only a `DupinError` may escape a loader, and `dupin verify`
on a rejected sample file exits 2 with one line."""

import base64
import contextlib
import copy
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dupin import serialize
from dupin.cli import main
from dupin.errors import DupinError, ParseError
from dupin.seeds import torus_seed

# characters outside the standard base64 alphabet
_NON_BASE64 = "!*-_.~ \né"
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
    ops = ["truncate", "corrupt", "delete", "swap", "schema"] + (["recount"] if "sff" in doc else [])
    op = data.draw(st.sampled_from(ops))
    if op == "recount":
        return _recount(data, doc)[0], True
    doc = copy.deepcopy(doc)
    documents = [doc] + ([doc["triple"]] if "triple" in doc else [])
    objects = documents + [d["grid"] for d in documents]
    if op in ("truncate", "corrupt"):
        obj = data.draw(st.sampled_from(documents))
        key = data.draw(st.sampled_from(
            sorted(k for k, v in obj.items() if isinstance(v, str) and k != "schema")))
        s = obj[key]
        i = data.draw(st.integers(0, len(s) - 1))
        if op == "truncate":
            obj[key] = s[:i]
        else:
            obj[key] = s[:i] + data.draw(st.sampled_from(_NON_BASE64)) + s[i + 1:]
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
    a = np.frombuffer(base64.b64decode(obj[key]), dtype="<f8").reshape(shape).copy()
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
