"""Profile files round-trip bit-exactly, stay verifiable, and are checked
against their s when loaded."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from profile_lab.bidding import (BiddingProfile, _closure, build_profile,
                                 verify)
from profile_lab.excursion import (ExcursionProfile, build_excursion_profile,
                                   verify_excursion)
from profile_lab.serialize import (load_profile, profile_from_dict,
                                   profile_to_dict, save_profile)


def _assert_same_components(q, p):
    """Every stored part of every component of q is p's, exactly: left
    values, right pieces, each mode of the tail, and kink nodes."""
    assert len(q.components) == len(p.components)
    for a, b in zip(q.components, p.components):
        np.testing.assert_array_equal(a.left_values, b.left_values)
        assert a.right_pieces == b.right_pieces
        assert a.tail == b.tail
        assert a.kink_nodes == b.kink_nodes


def test_bidding_roundtrip(tmp_path, bidding_profiles):
    p = bidding_profiles[0.8]
    path = str(tmp_path / "p.json")
    save_profile(p, path)
    q = load_profile(path)
    assert isinstance(q, BiddingProfile)
    assert (q.s, q.rho, q.chi) == (p.s, p.rho, p.chi)
    _assert_same_components(q, p)
    assert verify(q).passed


def test_excursion_roundtrip(tmp_path, excursion_profiles):
    p = excursion_profiles[0.9]
    path = str(tmp_path / "p.json")
    save_profile(p, path)
    q = load_profile(path)
    assert isinstance(q, ExcursionProfile)
    assert (q.s, q.rho, q.chi, q.K, q.M) == (p.s, p.rho, p.chi, p.K, p.M)
    _assert_same_components(q, p)
    assert verify_excursion(q).passed


def test_double_roundtrip_is_stable(tmp_path, bidding_profiles):
    # shortest round-trip decimals: a second cycle changes nothing
    p = bidding_profiles[0.5]
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_profile(p, a)
    save_profile(load_profile(a), b)
    assert open(a).read() == open(b).read()


def test_saved_bytes_are_json_dumps(tmp_path, bidding_profiles,
                                    excursion_profiles):
    # one line of json.dumps, at the default grid (2 501 left values per
    # component) and from a window of -10 (6 251)
    for i, p in enumerate((bidding_profiles[0.8], excursion_profiles[0.9],
                           build_profile(0.8, x_min=-10.0),
                           build_excursion_profile(0.9, x_min=-10.0))):
        path = tmp_path / f"{i}.json"
        save_profile(p, str(path))
        assert path.read_text() == json.dumps(profile_to_dict(p)) + "\n"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        profile_from_dict({"problem": "mystery"})
    with pytest.raises(TypeError):
        profile_to_dict(object())


def test_dict_identity(bidding_profiles):
    p = bidding_profiles[0.5]
    d = profile_to_dict(p)
    q = profile_from_dict(d)
    np.testing.assert_array_equal(q.g.left_values, p.g.left_values)


def _leaves(doc, path=()):
    """Paths of the leaves of a JSON document, left values excluded; an
    empty list counts as a leaf."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list) and doc:
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items if key != "left_values"
            for leaf in _leaves(value, path + (key,))]


@pytest.fixture(scope="module")
def small_docs(tmp_path_factory):
    """Saved files of small profiles (x_min -12, h 1/128), as text."""
    path = tmp_path_factory.mktemp("small") / "p.json"
    docs = []
    for build, s in ((build_profile, 0.5), (build_excursion_profile, 0.9)):
        save_profile(build(s, x_min=-12.0, h=1 / 128), str(path))
        docs.append(path.read_text())
    return docs


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(which=st.integers(0, 1), pick=st.integers(0, 10**6),
       value=_json_values)
def test_any_changed_leaf_is_rejected(tmp_path_factory, small_docs, which,
                                      pick, value):
    doc = json.loads(small_docs[which])
    leaves = _leaves(doc)
    *parents, last = leaves[pick % len(leaves)]
    node = doc
    for key in parents:
        node = node[key]
    assume(json.dumps(value) != json.dumps(node[last]))
    node[last] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_profile(str(path))


@pytest.mark.parametrize("value", [True, False, 0, 1])
@pytest.mark.parametrize("which", [0, 1])
def test_non_float_left_value_is_rejected(tmp_path, small_docs, which, value):
    # as numbers true and 0 would load as 1.0 and 0.0; the writer emits only
    # JSON floats, so a bidding node or a G- node holding one is rejected
    doc = json.loads(small_docs[which])
    values = (doc if which == 0 else doc["g_minus"])["left_values"]
    values[len(values) // 2] = value
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="left_values"):
        load_profile(str(path))


def test_saved_documents_load(tmp_path, small_docs):
    for text in small_docs:
        path = tmp_path / "p.json"
        path.write_text(text)
        assert profile_to_dict(load_profile(str(path))) == json.loads(text)


@pytest.mark.parametrize("problem", ["bidding", "linsearch"])
def test_a_one_exponential_tail_is_rejected(tmp_path, problem):
    # files saved before the modal tail store one exponential from the
    # first value at the closure's rate; the loader derives the modes from
    # the left values instead
    build, key = {"bidding": (build_profile, ()),
                  "linsearch": (build_excursion_profile, ("g_plus",))}[problem]
    p = build(0.5, x_min=-12.0, h=1 / 128)
    g = p.components[0]
    w = _closure(type(p), p.s, p.rho, g.grid)
    rate = (sum(float(c.left_values[0]) for c in p.components)
            / math.fsum((w * g.left_values[:w.size]).tolist()))
    doc = profile_to_dict(p)
    node = doc
    for k in key:
        node = node[k]
    node["left_tail"] = {"coeff": float(g.left_values[0]), "rate": rate}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="/".join(key + ("left_tail",))):
        load_profile(str(path))
