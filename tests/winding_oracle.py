"""Dict-BFS oracle for torus winding, the reference of the vectorised wrap test.

``adj`` maps each vertex to ``(neighbour, dx, dy)`` triples, one per edge
end, with the displacement from the vertex to the neighbour.  A cycle's
displacements add up to a multiple of the torus side 2L; the graph winds
iff some cycle's sum is nonzero.
"""

from collections import deque


def _has_winding_cycle(vertices, adj, L: float) -> bool:
    """BFS potential assignment; an inconsistent non-tree edge means a wrap."""
    pot: dict = {}
    for start in vertices:
        if start in pot or not adj.get(start):
            continue
        pot[start] = (0.0, 0.0)
        dq = deque([start])
        while dq:
            u = dq.popleft()
            px, py = pot[u]
            for v, dx, dy in adj[u]:
                cand = (px + dx, py + dy)
                known = pot.get(v)
                if known is None:
                    pot[v] = cand
                    dq.append(v)
                elif abs(known[0] - cand[0]) > L or abs(known[1] - cand[1]) > L:
                    return True
    return False
