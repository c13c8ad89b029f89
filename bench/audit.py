"""Independent audit of one partitioning output, written with numpy only.

The check recomputes everything from the CSR arrays and the part vector; it
never calls into ``repro.metrics`` or any other code that produced the
result, so a bookkeeping bug in the library cannot vouch for itself.
"""

from __future__ import annotations

import numpy as np

#: Same slack the library documents for "within tolerance" verdicts: float
#: ratios of integer loads may land a few ulps above a cap they sit on.
FEASIBILITY_EPS = 1e-9


def audit_partition(xadj, adjncy, adjwgt, vwgt, part, nparts: int,
                    edgecut: int, ubvec) -> list[str]:
    """Return the names of the checks ``part`` fails (empty when it passes).

    Checks:

    * ``ids``: one integer id per vertex, every id in ``[0, nparts)``;
    * ``empty_part``: exactly ``nparts`` parts are non-empty;
    * ``cut``: the cut recomputed from the CSR equals the reported ``edgecut``;
    * ``balance``: every constraint's load per part is within ``ubvec`` times
      its even share of that constraint's total.
    """
    xadj = np.asarray(xadj)
    adjncy = np.asarray(adjncy)
    adjwgt = np.asarray(adjwgt)
    vwgt = np.asarray(vwgt).reshape(xadj.size - 1, -1)
    part = np.asarray(part)
    n = xadj.size - 1
    if part.shape != (n,) or not np.issubdtype(part.dtype, np.integer):
        return ["ids"]
    if n and (part.min() < 0 or part.max() >= nparts):
        return ["ids"]

    failed = []
    if np.count_nonzero(np.bincount(part, minlength=nparts)) != nparts:
        failed.append("empty_part")

    src = np.repeat(np.arange(n), np.diff(xadj))
    cut = int(adjwgt[part[src] != part[adjncy]].sum()) // 2
    if cut != int(edgecut):
        failed.append("cut")

    ub = np.broadcast_to(np.asarray(ubvec, dtype=np.float64), (vwgt.shape[1],))
    for c in range(vwgt.shape[1]):
        total = float(vwgt[:, c].sum())
        if total == 0:
            continue
        loads = np.bincount(part, weights=vwgt[:, c], minlength=nparts)
        if np.any(loads / (total / nparts) > ub[c] + FEASIBILITY_EPS):
            failed.append("balance")
            break
    return failed


def audit_graph_result(graph, part, nparts: int, edgecut: int,
                       ubvec) -> list[str]:
    """:func:`audit_partition` on a ``repro`` graph's public CSR arrays."""
    return audit_partition(graph.xadj, graph.adjncy, graph.adjwgt, graph.vwgt,
                           part, nparts, edgecut, ubvec)
