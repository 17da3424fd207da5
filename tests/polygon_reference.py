"""The side-pairing rule as first written: one ``edge_transport`` per side.

``gamma0.polygon.side_pairing_system`` takes every transport straight from
the cusp integers and every partner from the polygon's own table; the tests
compare it against this construction entry for entry.
"""

from gamma0.farey import mediant
from gamma0.polygon import EVEN, ODD, VERTICAL
from gamma0.psl2 import T, edge_transport, inverse


def transport_side_pairing(P):
    """(i, j, g) per side, each g from ``edge_transport`` on Frac pairs."""
    m = len(P.cusps)
    pending, mate = {}, {}
    for i, lab in enumerate(P.labels):
        if lab >= 2:
            if lab in pending:
                j = pending.pop(lab)
                mate[i], mate[j] = j, i
            else:
                pending[lab] = i
    entries = []
    for i, lab in enumerate(P.labels):
        p1, p2 = P.side(i)
        if lab == VERTICAL:
            entries.append((0, m - 1, T) if i == 0 else (m - 1, 0, inverse(T)))
        elif lab == EVEN:
            entries.append((i, i, edge_transport((p1, p2), (p2, p1))))
        elif lab == ODD:
            mid = mediant(p1, p2)
            entries.append((i, i, edge_transport((p1, mid), (mid, p2))))
        else:
            q1, q2 = P.side(mate[i])
            entries.append((i, mate[i], edge_transport((p1, p2), (q2, q1))))
    return entries
