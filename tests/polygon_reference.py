"""The side-pairing rule as first written: one ``edge_transport`` per side.

``gamma0.polygon.side_pairing_system`` takes every transport straight from
the cusp integers and every partner from the polygon's own table; the tests
compare it against this construction entry for entry, and the partner
table of every polygon against ``reference_partners``.
"""

from gamma0.farey import mediant
from gamma0.polygon import EVEN, ODD, VERTICAL
from gamma0.psl2 import T, edge_transport, inverse


def reference_partners(labels):
    """The partner table (as ``LabeledPolygon._mates``) the labels describe:
    the two vertical sides glued to each other, even and odd sides to
    themselves, free sides to nothing (-1), and the two sides that carry
    one pair index to each other."""
    m = len(labels)
    mate = [m - 1] + [-1] * (m - 2) + [0]
    pending = {}
    for i, lab in enumerate(labels[1:-1], start=1):
        if lab in (EVEN, ODD):
            mate[i] = i
        elif lab >= 2:
            if lab in pending:
                j = pending.pop(lab)
                mate[i], mate[j] = j, i
            else:
                pending[lab] = i
    return tuple(mate)


def transport_side_pairing(P):
    """(i, j, g) per side, each g from ``edge_transport`` on Frac pairs."""
    m = len(P.cusps)
    mate = reference_partners(P.labels)
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
