"""JSON interchange formats and stable serialisation.

One format per artifact kind; all files are UTF-8 JSON.  Writers emit sorted
keys and two-space indentation so identical inputs always produce identical
bytes.  Identity composites are omitted on write (the validator restores
them), which roughly halves category files.

Every file and report is written by ``stable_dumps``, whose text is exactly
that of ``json.dumps(value, sort_keys=True, indent=2)`` plus a newline.  It
does not call that directly because CPython uses its C encoder only without
``indent``: the indenting encoder is pure Python, one generator step per
token.  ``stable_dumps`` writes the same bytes with C-level joins over whole
lists and record columns, encoding each distinct string of a record list
once: about 7 times faster on the 36 MB file of a total category.

A category goes to and from a file on its integer coding, never on its
string table.  ``category_to_json`` reads the composites off the cells and
orders them by the ranks of their ids, and ``category_from_json`` hands the
composition entries, read in one pass, to ``validate_category``, which
writes them into the cells.

This module is the only place that reads JSON into the library, and ``_ids``
is the only place that decides what an id is, in every file kind: a scalar
is read with ``str()``, and a list or an object where an id belongs is
malformed input.  The validators it hands ids to take them as strings and
convert nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from itertools import chain, product, repeat
from json.encoder import encode_basestring_ascii as _encode
from operator import itemgetter

import numpy as np

from .core import FinCat, CategoryError, validate_category
from .functors import FinFunctor, validate_functor
from .groups import GroupHom, GroupTable, TwistedAction, validate_group, validate_group_hom
from .indexed import IndexedCat, cell_pairs, validate_indexed
from .theorem import WeakReversibilityWitness


class InputFormatError(CategoryError):
    pass


@contextmanager
def malformed(what: str):
    """Report a JSON value of the wrong shape or type as ``InputFormatError``.

    Parsers index into input values as if they had the expected shape; a
    missing key, a list where an object belongs or a scalar where a table
    belongs raises one of these built-in errors instead.
    """
    try:
        yield
    except (KeyError, IndexError, TypeError, AttributeError, ValueError) as exc:
        raise InputFormatError("malformed %s file: %r" % (what, exc)) from exc


def _json_list(value, what: str, length=None) -> list:
    """``value``, which must be a JSON list (of ``length`` items, if given):
    iterating a string or an object where a list belongs would silently read
    its characters or keys, and reading a prefix would ignore the rest."""
    if not isinstance(value, list):
        raise TypeError("%s is not a list" % what)
    if length is not None and len(value) != length:
        raise ValueError("%s has %d entries, expected %d" % (what, len(value), length))
    return value


def _json_object(value, what: str) -> dict:
    """``value``, which must be a JSON object: ``dict()`` would read a list
    of pairs, or of two-character strings, as a mapping and keep the last of
    two pairs with one key."""
    if not isinstance(value, dict):
        raise TypeError("%s is not an object" % what)
    return value


def _ids(values, what: str):
    """``values``, a list of ids or an object whose values are ids (its keys
    are strings in JSON), with every id read as a string.  A scalar is read
    with ``str()``; a list or an object is not an id, since ``str()`` would
    turn it into one that the file never names.  A file holds about 10^6
    ids, so the check is a C-level scan of their types, and ``values``
    itself comes back when every id is already a string."""
    table = isinstance(values, dict)
    ids = values.values() if table else values
    kinds = set(map(type, ids))
    if kinds <= {str}:
        return values
    if list in kinds or dict in kinds:
        bad = next(v for v in ids if type(v) in (list, dict))
        raise TypeError("%s %r is not an id" % (what, bad))
    return dict(zip(values, map(str, ids))) if table else list(map(str, ids))


def _id_table(value, what: str) -> dict:
    """``value``, which must be a JSON object from ids to ids, read by ``_ids``."""
    return _ids(_json_object(value, what), what)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict.  A key given twice is malformed: keeping
    either value would make the verdict depend on the order of entries."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise InputFormatError("key %r repeated in one object" % repeated)
    return obj


def read_json(path: str):
    """Parse a JSON file; bytes that are not UTF-8 JSON, and an object that
    repeats a key, are input errors."""
    return _parsed(path, _text(path, _read(path)))


def read_json_digest(path: str):
    """The parsed JSON file and the sha256 of its bytes, from one read of
    the file; the bytes are dropped before the text is parsed."""
    raw = _read(path)
    digest, text = digest_bytes(raw), _text(path, raw)
    del raw
    return _parsed(path, text), digest


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _text(path: str, raw: bytes) -> str:
    """``raw`` as a text-mode read gives it: UTF-8, with universal newlines."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _parsed(path: str, text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputFormatError("%s is not JSON: %s" % (path, exc)) from exc
    except InputFormatError as exc:
        raise InputFormatError("%s: %s" % (path, exc)) from None


def stable_dumps(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for byte."""
    out = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(value, nl: str, out: list) -> None:
    """Append to ``out`` the text of ``value`` as the stdlib writes it at the
    indent of ``nl``, a newline and the spaces that start a line at this
    depth.

    Strings, ints, booleans, None, lists, tuples and string-keyed dicts are
    written here.  A list or a dict whose members are all strings is one
    join over ``_encode``, and a list of records, dicts that share one key
    set and hold only strings, is one ``%`` template filled column by
    column.  Any other value goes to the stdlib, whose lines only need this
    depth's indent, since a JSON string holds no raw newline: floats,
    subclasses of the JSON types, non-string keys, and values it refuses.
    """
    t = type(value)
    if t is str:
        out.append(_encode(value))
    elif value is None:
        out.append("null")
    elif t is bool:
        out.append("true" if value else "false")
    elif t is int:
        out.append(int.__repr__(value))
    elif (t is list or t is tuple) and value:
        inner = nl + "  "
        sep = "," + inner
        body = sep.join(map(_encode, value)) if _only(str, value) else _records(value, inner)
        if body is None:
            head = "[" + inner
            for v in value:
                out.append(head)
                _write(v, inner, out)
                head = sep
        else:
            out += ("[", inner, body)
        out.append(nl + "]")
    elif t is dict and _only(str, value):
        inner = nl + "  "
        sep = "," + inner
        keys = sorted(value)
        values = list(map(value.__getitem__, keys))
        if _only(str, values):
            pairs = zip(map(_encode, keys), map(_encode, values))
            out += ("{", inner, sep.join(map("%s: %s".__mod__, pairs)))
        else:
            head = "{" + inner
            for k, v in zip(keys, values):
                out.append(head + _encode(k) + ": ")
                _write(v, inner, out)
                head = sep
        out.append(nl + "}")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", nl))


def _only(t: type, values) -> bool:
    """Whether ``values`` is not empty and each member has exactly type ``t``."""
    return set(map(type, values)) == {t}


def _records(rows, nl: str):
    """The members of the list ``rows``, written at the indent of ``nl`` and
    joined, if they are dicts that share one key set and hold only strings;
    otherwise None.

    Rows of the first row's length that all hold its keys share its key
    set.  Each distinct string is encoded once, and the text is one join
    over a list of pieces, two per key and row: the key's lead-in, then the
    value."""
    if not _only(dict, rows) or not _only(str, rows[0]):
        return None
    keys = sorted(rows[0])
    if set(map(len, rows)) != {len(keys)}:
        return None
    try:
        columns = [list(map(itemgetter(k), rows)) for k in keys]
    except KeyError:
        return None
    if not all(_only(str, column) for column in columns):
        return None
    distinct = set().union(*columns)
    encoded = dict(zip(distinct, map(_encode, distinct)))
    inner, w = nl + "  ", 2 * len(keys)
    head = "{" + inner + _encode(keys[0]) + ": "
    leads = [nl + "}," + nl + head] + ["," + inner + _encode(k) + ": " for k in keys[1:]]
    pieces = [None] * (w * len(rows))
    for j, (lead, column) in enumerate(zip(leads, columns)):
        pieces[2 * j :: w] = [lead] * len(rows)
        pieces[2 * j + 1 :: w] = map(encoded.__getitem__, column)
    pieces[0] = head
    pieces.append(nl + "}")
    return "".join(pieces)


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path: str) -> str:
    return digest_bytes(_read(path))


def category_to_json(C: FinCat) -> dict:
    """The file form of ``C``: its composition lists every composite whose
    factors are not identities, by (first, then) in id order, read off the
    cells of ``C.coding``."""
    coding = C.coding
    f, g = coding.pairs()
    unit = np.zeros(len(coding.ids), bool)
    unit[coding.units] = True
    keep = ~(unit[f] | unit[g])
    f, g, h = f[keep], g[keep], coding.cells[keep]
    names = np.array(coding.ids, object)
    rank = np.empty(len(names), np.intp)
    rank[np.argsort(names)] = np.arange(len(names))
    order = np.lexsort((rank[g], rank[f]))
    composition = [
        {"first": first, "then": then, "equals": equals}
        for first, then, equals in zip(*(names[k[order]].tolist() for k in (f, g, h)))
    ]
    return {
        "objects": list(C.objects),
        "morphisms": [
            {"id": m, "src": C.src[m], "tgt": C.tgt[m]} for m in C.morphisms
        ],
        "identities": {x: C.identity[x] for x in C.objects},
        "composition": composition,
    }


def _columns(records: list, keys: tuple, what: str) -> list:
    """The id columns ``keys`` of the JSON objects ``records``, read by ``_ids``."""
    return [_ids(list(map(itemgetter(k), records)), "%s %s" % (what, k)) for k in keys]


_COMPOSITE = ("first", "then", "equals")


class _MorphismNames(dict):
    """Each morphism id to itself.  Any other name is read with ``str()``
    and not kept, so ``1`` and ``True`` stay apart; a list or an object is
    unhashable, so looking it up raises ``TypeError``."""

    def __missing__(self, name):
        return str(name)


@malformed("category")
def category_from_json(data: dict) -> FinCat:
    """The category of a file, vetted by ``validate_category``.

    The composition is read in one pass, every entry's three ids in turn,
    through ``_MorphismNames``, so only the few names that name no
    morphism are looked at for their type.  When anything in the file is
    malformed, the column scans of ``_columns`` then run over the
    composition, so that a fault there is named first: by column, first,
    then and equals, and then by entry."""
    morphisms = _json_list(data["morphisms"], "morphisms")
    ids, srcs, tgts = _columns(morphisms, ("id", "src", "tgt"), "morphism")
    entries = _json_list(data.get("composition", []), "composition")
    try:
        objects = _ids(_json_list(data["objects"], "objects"), "object")
        identities = _id_table(data["identities"], "identities")
        names = _MorphismNames(zip(ids, ids))
        flat = map(names.__getitem__, chain.from_iterable(map(itemgetter(*_COMPOSITE), entries)))
        return validate_category(
            objects, zip(ids, srcs, tgts), identities, zip(flat, flat, flat)
        )
    except (KeyError, TypeError, ValueError):
        _columns(entries, _COMPOSITE, "composition")
        raise


def functor_to_json(F: FinFunctor, inline: bool = True) -> dict:
    out = {
        "on_objects": dict(sorted(F.on_objects.items())),
        "on_morphisms": dict(sorted(F.on_morphisms.items())),
    }
    if inline:
        out["source"] = category_to_json(F.source)
        out["target"] = category_to_json(F.target)
    return out


def group_to_json(G: GroupTable) -> dict:
    els = list(G.elements)
    return {
        "elements": els,
        "mult": [[G.mul(a, b) for b in els] for a in els],
        "unit": G.unit,
    }


@malformed("group")
def group_from_json(data: dict) -> GroupTable:
    els = _ids(_json_list(data["elements"], "elements"), "element")
    rows = _json_list(data["mult"], "mult", len(els))
    mult = {}
    for i, a in enumerate(els):
        row = _ids(_json_list(rows[i], "mult row %d" % i, len(els)), "product")
        mult.update(zip(zip(repeat(a), els), row))
    unit = data.get("unit")
    return validate_group(els, mult, None if unit is None else _ids([unit], "unit")[0])


def indexed_to_json(M: IndexedCat) -> dict:
    for f in M.base.morphisms:
        if "|" in f:
            raise InputFormatError(
                "base morphism id %r contains '|', which the compositor "
                "key format reserves" % f
            )
    C, pairs = M.coding, cell_pairs(M.base)
    return {
        "base": category_to_json(M.base),
        "fibers": {x: category_to_json(M.fiber_at(x)) for x in M.base.objects},
        "arrows": {f: functor_to_json(M.arrow_at(f), inline=False) for f in M.base.morphisms},
        "compositors": {
            "%s|%s" % fg: C.components(C.mu, C.mu_at[t], C.mu_over[t])
            for fg, t in sorted(zip(pairs, range(len(pairs))))
        },
        "unitors": {x: C.components(C.eta, 0, i) for i, x in enumerate(M.base.objects)},
    }


def _tables(tab: dict) -> tuple:
    """The object and morphism tables of a functor that ``tab`` holds."""
    return _id_table(tab["on_objects"], "on_objects"), _id_table(tab["on_morphisms"], "on_morphisms")


def _functor_from(source: FinCat, target: FinCat, tab: dict) -> FinFunctor:
    """The functor whose object and morphism tables ``tab`` holds."""
    return validate_functor(source, target, *_tables(tab))


class Loader:
    """Resolves by-path or inline references inside artifact files."""

    def __init__(self, root: str = "."):
        self.root = root

    def _resolve(self, ref, parser):
        if isinstance(ref, str):
            return parser(read_json(os.path.join(self.root, ref)))
        if isinstance(ref, dict):
            return parser(ref)
        raise InputFormatError("expected a path or an inline object")

    def category(self, ref) -> FinCat:
        return self._resolve(ref, category_from_json)

    def group(self, ref) -> GroupTable:
        return self._resolve(ref, group_from_json)

    @malformed("functor")
    def functor(self, data: dict) -> FinFunctor:
        source = self.category(data["source"])
        target = self.category(data["target"])
        return _functor_from(source, target, data)

    @malformed("indexed")
    def indexed(self, data: dict) -> IndexedCat:
        base = self.category(data["base"])
        fibers = {x: self.category(ref) for x, ref in data["fibers"].items()}
        arrows = {}
        for f, tab in data["arrows"].items():
            if f not in base.src:
                raise InputFormatError("arrow for unknown morphism %r" % f)
            # bare: validate_indexed checks every arrow at once
            arrows[f] = FinFunctor(fibers[base.tgt[f]], fibers[base.src[f]], *_tables(tab))
        compositors = None
        if "compositors" in data:
            compositors = {}
            for key, comps in data["compositors"].items():
                if key.count("|") != 1:
                    raise InputFormatError("bad compositor key %r" % key)
                f, g = key.split("|")
                compositors[(f, g)] = _id_table(comps, "compositor %r" % key)
        unitors = data.get("unitors")
        if unitors is not None:
            unitors = {
                x: _id_table(comps, "unitor %r" % x)
                for x, comps in _json_object(unitors, "unitors").items()
            }
        return validate_indexed(base, fibers, arrows, compositors, unitors)

    @malformed("witness")
    def witness(self, M: IndexedCat, data: dict) -> WeakReversibilityWitness:
        pushforwards = {}
        for f, tab in data["pushforwards"].items():
            if f not in M.base.src:
                raise InputFormatError("pushforward for unknown morphism %r" % f)
            x, y = M.base.src[f], M.base.tgt[f]
            pushforwards[f] = _functor_from(M.fiber_at(x), M.fiber_at(y), tab)
        units = {}
        for f, comps in data["units"].items():
            if f not in M.base.src:
                raise InputFormatError("unit for unknown morphism %r" % f)
            units[f] = _id_table(comps, "unit %r" % f)
        return WeakReversibilityWitness(pushforwards, units)

    @malformed("twisted-action")
    def twisted(self, data: dict) -> TwistedAction:
        """The twisted action of a ``group ext`` file; its laws are not
        checked, but an ``act`` or ``phi`` entry for an element outside the
        acting group is an error."""
        acting = self.group(data["acting"])
        acted = self.group(data["acted"])
        act = {g: _id_table(m, "act %r" % g) for g, m in data["act"].items()}
        for g in act:
            if g not in acting.inv:
                raise InputFormatError("act for unknown element %r" % g)
        phi = {}
        for key, val in _id_table(data["phi"], "phi").items():
            if key.count("|") != 1:
                raise InputFormatError("bad phi key %r" % key)
            a, b = key.split("|")
            if a not in acting.inv or b not in acting.inv:
                raise InputFormatError("phi for unknown elements %r" % key)
            phi[(a, b)] = val
        for a, b in product(acting.elements, repeat=2):
            if phi.get((a, b)) not in acted.elements:
                raise InputFormatError("phi(%s|%s) is missing or not in the acted group" % (a, b))
        return TwistedAction(acting, acted, act, phi)

    @malformed("surjection")
    def surjection(self, data: dict) -> tuple[GroupHom, dict | None]:
        """The projection of a ``group split|twist`` file, and its section
        table, or None when the file has none."""
        total = self.group(data["total"])
        target = self.group(data["target"])
        proj = validate_group_hom(total, target, _id_table(data["proj"], "proj"))
        section = data.get("section")
        return proj, None if section is None else _id_table(section, "section")


def witness_to_json(w: WeakReversibilityWitness) -> dict:
    return {
        "pushforwards": {
            f: functor_to_json(F, inline=False) for f, F in sorted(w.pushforwards.items())
        },
        "units": {f: dict(sorted(c.items())) for f, c in sorted(w.units.items())},
    }
