"""Profile (de)serialization.

Profiles are stored as a self-describing JSON document in the layout each
profile class declares: its ``problem`` tag, s, rho, chi and the class's
``fields``, the grid's x_min and h, then one block per component (left
values, right pieces, the tail's modes, kink nodes) under that
component's key in ``blocks``, or at the top level where the key is
None.  All reals are
emitted as shortest round-trip decimals (Python's float repr), so a
save/load cycle reproduces every stored value bit-exactly.  Unbounded piece
ends are encoded as null.  Loading finds the class by its tag, rebuilds
the profile from s, grid and left values alone, and rejects
(``ValueError``) a document that is malformed, non-finite, or not exactly
what that profile saves.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .bidding import BiddingProfile, _profile
from .excursion import ExcursionProfile
from .grids import GridFunction, GridSpec, Piece, make_grid

__all__ = ["profile_to_dict", "profile_from_dict", "save_profile",
           "load_profile"]

# the profile classes by the problem tag of their files
_KINDS = {kind.problem: kind for kind in (BiddingProfile, ExcursionProfile)}


def _piece_to_dict(p: Piece) -> dict[str, Any]:
    return {
        "lo": p.lo,
        "hi": None if math.isinf(p.hi) else p.hi,
        "level": p.level,
        "terms": [list(t) for t in p.terms],
    }


def _grid_function_to_dict(g: GridFunction) -> dict[str, Any]:
    return {
        "left_values": g.left_values.tolist(),
        "right_pieces": [_piece_to_dict(p) for p in g.right_pieces],
        "left_tail": {"coeff": g.tail_coeff, "rate": g.tail_rate,
                      "modes": [[lam.real, lam.imag, c.real, c.imag]
                                for lam, c in g.tail.modes[1:]]},
        "kink_nodes": list(g.kink_nodes),
    }


def profile_to_dict(p: BiddingProfile | ExcursionProfile) -> dict[str, Any]:
    """The document of ``p`` in the layout its class declares."""
    kind = type(p)
    if kind not in _KINDS.values():
        raise TypeError(f"not a profile: {kind!r}")
    g = p.components[0]
    doc = {"problem": kind.problem, "s": p.s, "rho": p.rho, "chi": p.chi,
           **{name: getattr(p, name) for name in kind.fields},
           "x_min": g.x_min, "h": g.h}
    for block, c in zip(kind.blocks, p.components):
        d = _grid_function_to_dict(c)
        doc.update(d if block is None else {block: d})
    return doc


def _left_values(d: Any, grid: GridSpec) -> np.ndarray:
    v = d.get("left_values") if isinstance(d, dict) else None
    if isinstance(v, list) and set(map(type, v)) == {float}:
        v = np.array(v)
        if v.shape == (grid.m + 1,) and np.all(np.isfinite(v)):
            return v
    raise ValueError("left_values must be finite JSON floats, one per node of "
                     "the grid given by x_min and h")


def _leaves(doc: Any, path: tuple = ()) -> dict[tuple, str]:
    """The repr of each leaf of a document (an empty container counts as a
    leaf) by its path of keys; left values are skipped."""
    if not (isinstance(doc, (dict, list)) and doc):
        return {path: repr(doc)}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    return {p: r for k, v in items if k != "left_values"
            for p, r in _leaves(v, path + (k,)).items()}


def profile_from_dict(d: dict[str, Any]) -> BiddingProfile | ExcursionProfile:
    """Rebuild a profile from its document, which must be exactly what
    :func:`profile_to_dict` gives for the rebuilt profile; else raise
    ``ValueError`` naming the first key that is malformed or differs."""
    if not isinstance(d, dict):
        raise ValueError("a profile document must be a JSON object")
    problem = d.get("problem")
    # a list or an object is no tag, and would not hash
    kind = _KINDS.get(problem) if isinstance(problem, str) else None
    if kind is None:
        raise ValueError(f"unknown profile kind: {problem!r}")
    s, x_min, h = reals = tuple(d.get(key) for key in ("s", "x_min", "h"))
    if not all(isinstance(v, float) and math.isfinite(v) for v in reals):
        raise ValueError("profile fields s, x_min and h must be finite reals")
    grid = make_grid(x_min, h)
    p = _profile(kind, s, grid, tuple(
        _left_values(d if block is None else d.get(block), grid)
        for block in kind.blocks))
    # left values are the document's own; the rest must match in type and repr
    got, want = _leaves(d), _leaves(profile_to_dict(p))
    diff = next((k for k in (*want, *got) if got.get(k) != want.get(k)), None)
    if diff is not None:
        raise ValueError(f"profile field {'/'.join(map(str, diff))!r} does "
                         f"not match the {problem} profile at s={s!r}")
    return p


def _write_json(doc: Any, fh) -> None:
    """Write ``json.dumps(doc)`` to ``fh`` piece by piece.

    ``json.dumps`` runs the C encoder, about twice as fast as the
    pure-Python one of ``json.dump``, but holds one string per number until
    it joins them (0.56 MB for a whole linear-search profile at the default
    grid, 2 501 nodes per component), so objects are written key by key,
    which holds one component's values at a time, and lists longer than
    4096 items, which only finer grids give, in slices of 4096.
    """
    if isinstance(doc, dict):
        fh.write("{")
        for i, (key, value) in enumerate(doc.items()):
            fh.write((", " if i else "") + json.dumps(key) + ": ")
            _write_json(value, fh)
        fh.write("}")
    elif isinstance(doc, list) and len(doc) > 4096:
        fh.write("[")
        for i in range(0, len(doc), 4096):
            fh.write((", " if i else "") + json.dumps(doc[i:i + 4096])[1:-1])
        fh.write("]")
    else:
        fh.write(json.dumps(doc))


def save_profile(p: BiddingProfile | ExcursionProfile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(profile_to_dict(p), fh)
        fh.write("\n")


def load_profile(path: str) -> BiddingProfile | ExcursionProfile:
    """The profile saved at ``path``; ``ValueError`` for a document that
    :func:`profile_from_dict` rejects or that nests too deeply to read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return profile_from_dict(json.load(fh))
        except RecursionError:  # a RuntimeError, which is no bad input
            raise ValueError(f"{path} nests too deeply") from None
