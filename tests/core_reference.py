"""Reference validation: the per-(a, b, c, d) associativity sweep.

This is the check ``fibcat.core`` ran before it moved to ``int32`` local
codes and one sweep per (a, b, c): global-code composition blocks ``P``
beside local-code blocks ``L``, an ``nmor``-long global-to-local array per
hom-set, and a broadcast comparison for every composable (a, b, c, d).  It is
kept only as the oracle for ``test_core_reference.py`` and imports nothing
private from ``fibcat``, so it shares no code with the check it tests.
"""

from __future__ import annotations

import numpy as np

from fibcat.core import (
    AssociativityViolation,
    CompositeEndpointViolation,
    MissingComposite,
)


def check_completeness_and_associativity(obs, mors, src, tgt, table, homs):
    """Exhaustive totality, endpoint and associativity checks.

    Vectorised with small integer tables: the largest generated categories
    have ~10^8 composable triples, far beyond what pure-Python loops handle.
    """
    code = {m: i for i, m in enumerate(mors)}
    nmor = len(mors)
    loc = {}  # (x, y) -> int64 array mapping global code -> local hom index

    def glob2loc(x, y):
        a = loc.get((x, y))
        if a is None:
            a = np.full(nmor, -1, dtype=np.int64)
            for i, m in enumerate(homs.get((x, y), ())):
                a[code[m]] = i
            loc[(x, y)] = a
        return a

    outs = {}
    for (x, y) in homs:
        outs.setdefault(x, []).append(y)
    for x in outs:
        outs[x].sort()

    pair_tabs = {}  # (a, b, c) -> (P global codes, L local codes)

    def pair_tab(a, b, c):
        got = pair_tabs.get((a, b, c))
        if got is not None:
            return got
        h1 = homs[(a, b)]
        h2 = homs[(b, c)]
        g2l = glob2loc(a, c)
        p = np.empty((len(h1), len(h2)), dtype=np.int64)
        for i, f in enumerate(h1):
            row = p[i]
            for j, g in enumerate(h2):
                h = table.get((f, g))
                if h is None:
                    raise MissingComposite((f, g))
                row[j] = code[h]
        l = g2l[p]
        if (l < 0).any():
            i, j = map(int, np.argwhere(l < 0)[0])
            raise CompositeEndpointViolation((h1[i], h2[j], mors[p[i, j]]))
        pair_tabs[(a, b, c)] = (p, l)
        return p, l

    # Totality and endpoints over every composable pair.
    for (a, b) in sorted(homs):
        for c in outs.get(b, ()):
            pair_tab(a, b, c)

    # Associativity over every composable triple.
    for (a, b) in sorted(homs):
        for c in outs.get(b, ()):
            _, l_abc = pair_tab(a, b, c)
            for d in outs.get(c, ()):
                p_acd, _ = pair_tab(a, c, d)
                p_abd, _ = pair_tab(a, b, d)
                _, l_bcd = pair_tab(b, c, d)
                n1, n2 = l_abc.shape
                n3 = l_bcd.shape[1]
                chunk = max(1, 2_000_000 // max(1, n2 * n3))
                for i0 in range(0, n1, chunk):
                    i1 = min(n1, i0 + chunk)
                    left = p_acd[l_abc[i0:i1]]  # (i, n2, n3)
                    right = p_abd[
                        np.arange(i0, i1)[:, None, None], l_bcd[None, :, :]
                    ]
                    if not np.array_equal(left, right):
                        i, j, k = map(int, np.argwhere(left != right)[0])
                        raise AssociativityViolation(
                            (
                                homs[(a, b)][i0 + i],
                                homs[(b, c)][j],
                                homs[(c, d)][k],
                            )
                        )
