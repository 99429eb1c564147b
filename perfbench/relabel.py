"""Seeded bijective relabelling of the JSON inputs the benchmark writes.

Real users pick arbitrary identifiers, and fibcat enumerates in sorted
identifier order, so a relabelling changes every search order while leaving
every verdict unchanged.  Each function takes one of the README's file
formats as a parsed JSON value and returns an isomorphic copy in which
object, morphism and group-element ids are replaced by fresh names in a
seeded random order, and every list whose order carries no meaning
(objects, morphisms, composition entries) is shuffled.

Fresh names use only letters and digits, so they never clash with the
separators fibcat's id schemes reserve (``|``, ``@``, ``~``, ``;``).
"""

from __future__ import annotations

import random


def _fresh(rng: random.Random, old, prefix: str) -> dict:
    """A bijection from ``old`` onto ``prefix0..prefixN`` in random order."""
    old = list(old)
    slots = list(range(len(old)))
    rng.shuffle(slots)
    return {o: "%s%d" % (prefix, s) for o, s in zip(old, slots)}


def category(rng: random.Random, data: dict) -> dict:
    """Relabel a category file."""
    return _category(rng, data)[0]


def _category(rng: random.Random, data: dict):
    """(relabelled category, object map, morphism map)."""
    ob = _fresh(rng, data["objects"], "o")
    mor = _fresh(rng, (m["id"] for m in data["morphisms"]), "m")
    morphisms = [
        {"id": mor[m["id"]], "src": ob[m["src"]], "tgt": ob[m["tgt"]]}
        for m in data["morphisms"]
    ]
    composition = [
        {"first": mor[e["first"]], "then": mor[e["then"]], "equals": mor[e["equals"]]}
        for e in data.get("composition", [])
    ]
    objects = list(ob.values())
    for seq in (objects, morphisms, composition):
        rng.shuffle(seq)
    payload = {
        "objects": objects,
        "morphisms": morphisms,
        "identities": {ob[x]: mor[i] for x, i in data["identities"].items()},
        "composition": composition,
    }
    return payload, ob, mor


def _table(tab: dict, src_ob, src_mor, tgt_ob, tgt_mor) -> dict:
    return {
        "on_objects": {src_ob[a]: tgt_ob[b] for a, b in tab["on_objects"].items()},
        "on_morphisms": {src_mor[f]: tgt_mor[g] for f, g in tab["on_morphisms"].items()},
    }


def functor(rng: random.Random, data: dict) -> dict:
    """Relabel a functor file whose source and target are inline."""
    source, s_ob, s_mor = _category(rng, data["source"])
    target, t_ob, t_mor = _category(rng, data["target"])
    out = _table(data, s_ob, s_mor, t_ob, t_mor)
    out.update(source=source, target=target)
    return out


def indexed(rng: random.Random, data: dict) -> dict:
    """Relabel an indexed-category file with inline base and fibers.

    Each fiber gets its own bijection; arrows, compositors and unitors are
    rewritten through the bijections of the fibers they connect.
    """
    base, b_ob, b_mor = _category(rng, data["base"])
    src = {m["id"]: m["src"] for m in data["base"]["morphisms"]}
    tgt = {m["id"]: m["tgt"] for m in data["base"]["morphisms"]}
    fibers, f_ob, f_mor = {}, {}, {}
    for x, fib in data["fibers"].items():
        fibers[b_ob[x]], f_ob[x], f_mor[x] = _category(rng, fib)
    # M(f) for f: x -> y is a functor fiber(y) -> fiber(x).
    arrows = {
        b_mor[f]: _table(tab, f_ob[tgt[f]], f_mor[tgt[f]], f_ob[src[f]], f_mor[src[f]])
        for f, tab in data["arrows"].items()
    }
    # mu[f|g] has components at objects over tgt(g), valued over src(f).
    compositors = {}
    for key, comps in data.get("compositors", {}).items():
        f, g = key.split("|")
        x, z = src[f], tgt[g]
        compositors["%s|%s" % (b_mor[f], b_mor[g])] = {
            f_ob[z][c]: f_mor[x][m] for c, m in comps.items()
        }
    unitors = {
        b_ob[x]: {f_ob[x][a]: f_mor[x][m] for a, m in comps.items()}
        for x, comps in data.get("unitors", {}).items()
    }
    return {
        "base": base,
        "fibers": fibers,
        "arrows": arrows,
        "compositors": compositors,
        "unitors": unitors,
    }


def _group(rng: random.Random, data: dict):
    """(relabelled and reordered group file, element map)."""
    els = [str(e) for e in data["elements"]]
    name = _fresh(rng, els, "g")
    order = list(range(len(els)))
    rng.shuffle(order)
    payload = {
        "elements": [name[els[i]] for i in order],
        "mult": [[name[str(data["mult"][i][j])] for j in order] for i in order],
        "unit": name[str(data["unit"])],
    }
    return payload, name


def surjection(rng: random.Random, data: dict) -> dict:
    """Relabel a ``group split``/``group twist`` input file."""
    total, t = _group(rng, data["total"])
    target, q = _group(rng, data["target"])
    out = {
        "total": total,
        "target": target,
        "proj": {t[a]: q[b] for a, b in data["proj"].items()},
    }
    if "section" in data:
        out["section"] = {q[a]: t[b] for a, b in data["section"].items()}
    return out


def twisted(rng: random.Random, data: dict) -> dict:
    """Relabel a ``group ext`` input file (a twisted action)."""
    acting, g = _group(rng, data["acting"])
    acted, k = _group(rng, data["acted"])
    phi = {}
    for key, val in data["phi"].items():
        a, b = key.split("|")
        phi["%s|%s" % (g[a], g[b])] = k[val]
    return {
        "acting": acting,
        "acted": acted,
        "act": {g[a]: {k[h]: k[v] for h, v in m.items()} for a, m in data["act"].items()},
        "phi": phi,
    }
