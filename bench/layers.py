"""Per-layer tracing from outside the library.

:class:`LayerTrace` replaces the attribute a caller looks up (for example
``repro.partition.kway.coarsen``, not ``repro.coarsen.coarsen``) with a
timing wrapper, so the same function is charged to whichever layer called
it: the nested coarsenings inside recursive bisection count as initpart,
the top-level one as coarsen.  A wrapper whose layer is ``None`` inherits
the layer of the frame that called it.

Self time uses a frame stack per thread.  A frame's self time is its
duration minus the durations of the wrapped frames it called.  The frames a
thread opens with an empty stack are children of the current op's root
frame, even on another thread: the serve workload computes on the
service's worker thread while the client thread waits.  Every frame's self
time therefore adds up to the op's wall time, and the root's self time
(``partition.self_s``) is what no wrapped layer claims.

Nothing here edits library code; :meth:`LayerTrace.uninstall` puts every
original attribute back.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter

import numpy as np

LAYERS = ("partition", "coarsen", "initpart", "refine", "adaptive", "serve",
          "parallel")


class _Frame:
    __slots__ = ("site", "layer", "t0", "parent", "child")

    def __init__(self, site, layer, parent):
        self.site = site
        self.layer = layer
        self.parent = parent
        self.child = 0.0
        self.t0 = time.perf_counter()


class LayerTrace:
    """Wrap call sites, charge self time to layers, collect return values."""

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._undo = []
        self._root = None
        self.ops = 0
        self.op_s = 0.0
        self.self_s = Counter()    # layer -> self seconds
        self.site_self = Counter()  # (layer, site) -> self seconds
        self.site_incl = Counter()  # site -> inclusive seconds
        self.calls = Counter()      # site -> call count
        self.counts = Counter()     # named counts taken from return values
        self.overlaps = 0           # frames with negative self time

    # -- installing ------------------------------------------------------ #

    def wrap(self, owner, attr, site, layer=None, observe=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with a
        timing wrapper; ``observe(trace, result)`` sees each return value."""
        is_dict = isinstance(owner, dict)
        orig = owner[attr] if is_dict else getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            frame = self._enter(site, layer)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._exit(frame)
            if observe is not None:
                with self._lock:
                    observe(self, out)
            return out

        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig, is_dict))

    def uninstall(self):
        for owner, attr, orig, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._undo.clear()

    # -- frames ---------------------------------------------------------- #

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _enter(self, site, layer):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        if layer is None:
            layer = parent.layer if parent is not None else "partition"
        frame = _Frame(site, layer, parent)
        stack.append(frame)
        return frame

    def _exit(self, frame):
        dur = time.perf_counter() - frame.t0
        self._stack().pop()
        with self._lock:
            if frame.parent is not None:
                frame.parent.child += dur
            own = dur - frame.child
            self.overlaps += own < 0
            self.self_s[frame.layer] += own
            self.site_self[(frame.layer, frame.site)] += own
            self.site_incl[frame.site] += dur
            self.calls[frame.site] += 1

    def op(self):
        """Context manager timing one op as the root frame."""
        return _Op(self)


class _Op:
    def __init__(self, trace):
        self.trace = trace
        self.seconds = 0.0

    def __enter__(self):
        self.frame = _Frame("op", "partition", None)
        self.trace._root = self.frame
        return self

    def __exit__(self, *exc):
        tr, frame = self.trace, self.frame
        self.seconds = time.perf_counter() - frame.t0
        with tr._lock:
            tr._root = None
            own = self.seconds - frame.child
            tr.overlaps += own < 0
            tr.self_s["partition"] += own
            tr.site_self[("partition", "op")] += own
            tr.ops += 1
            tr.op_s += self.seconds
        return False


# -- return-value observers ------------------------------------------------ #

def _hierarchy(tr, hier):
    sizes = hier.sizes()
    tr.counts["coarsen.levels"] += hier.nlevels
    tr.counts["coarsen.coarsest_nvtxs"] += sizes[-1]
    tr.counts["coarsen.hierarchies"] += 1
    if hier.nlevels:
        tr.counts["coarsen.shrink_sum"] += float(
            np.mean(np.divide(sizes[1:], sizes[:-1])))


def _kway_stats(tr, st):
    tr.counts["refine.moves"] += st.moves
    tr.counts["refine.passes"] += st.passes
    tr.counts["refine.balance_moves"] += st.balance_moves
    tr.counts["refine.cut_removed"] += st.initial_cut - st.final_cut


def _balance_moves(tr, moved):
    tr.counts["refine.balance_moves"] += moved


def _fm_stats(tr, st):
    tr.counts["fm.moves"] += st.moves
    tr.counts["fm.rollbacks"] += st.rollbacks


def install(trace: LayerTrace) -> LayerTrace:
    """Wrap every site the layer table names (see ``bench/README.md``)."""
    import repro.adaptive.repart as repart
    import repro.coarsen.coarsener as coarsener
    import repro.initpart.bisect as bisect
    import repro.parallel.driver as pdriver
    import repro.partition.api as api
    import repro.partition.kway as kway
    import repro.partition.recursive as recursive
    import repro.serve.service as service
    from repro.parallel.shm import ShmFabric

    w = trace.wrap
    w(api, "partition_kway", "partition_kway", "partition")
    w(kway, "coarsen", "coarsen", "coarsen", _hierarchy)
    w(kway, "partition_recursive", "initpart", "initpart")
    w(pdriver, "partition_recursive", "initpart", "initpart")
    w(kway, "kway_refine", "kway_refine", "refine", _kway_stats)
    w(kway, "balance_kway", "balance_kway", "refine", _balance_moves)
    # Inside initial partitioning: these inherit the initpart layer.
    w(recursive, "initial_bisection", "bisect")
    w(recursive, "coarsen", "rb_coarsen")
    w(recursive, "fm2way_refine", "rb_fm", observe=_fm_stats)
    w(recursive, "induced_subgraph", "subgraph")
    w(bisect, "fm2way_refine", "candidate_fm", observe=_fm_stats)
    # Matching and contraction inherit whichever coarsening called them.
    for name in list(coarsener.MATCHERS):
        w(coarsener.MATCHERS, name, "match")
    w(coarsener, "two_hop_matching", "match")
    w(coarsener, "contract", "contract")
    # Serve and warm start.
    w(service, "request_key", "request_key", "serve")
    w(service, "part_graph", "cold", "serve")
    w(service, "warm_start", "warm_start", "adaptive")
    w(repart, "balance_kway_state", "adaptive_balance", "adaptive")
    w(repart, "kway_refine", "adaptive_refine", "adaptive")
    # Shared-memory ranks.
    w(ShmFabric, "__init__", "spawn", "parallel")
    w(ShmFabric, "run", "dispatch", "parallel")
    for name in ("exchange", "allreduce", "gather", "bcast"):
        w(ShmFabric, name, "collective", "parallel")
    w(ShmFabric, "publish", "publish", "parallel")
    w(ShmFabric, "close", "close", "parallel")
    return trace


def layer_metrics(tr: LayerTrace, extra: dict) -> dict[str, float]:
    """Per-op layer metrics (see the layer table in ``bench/README.md``).

    ``extra`` carries what the workload measured outside the wrappers:
    ``untraced_p50_s`` / ``traced_p50_s``, serve dispositions, shm stats and
    the serial reference time.
    """
    ops = max(tr.ops, 1)
    op_s = tr.op_s / ops
    c, incl, own = tr.counts, tr.site_incl, tr.site_self

    def per_op(x):
        return x / ops

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "partition.op_s": op_s,
        "partition.self_s": per_op(tr.self_s["partition"]),
        "trace.overhead": ratio(extra["traced_p50_s"], extra["untraced_p50_s"]),
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = per_op(tr.self_s[layer])

    m["coarsen.match_s"] = per_op(own[("coarsen", "match")])
    m["coarsen.contract_s"] = per_op(own[("coarsen", "contract")])
    m["coarsen.levels"] = per_op(c["coarsen.levels"])
    m["coarsen.shrink"] = ratio(c["coarsen.shrink_sum"], c["coarsen.hierarchies"])
    m["coarsen.coarsest_nvtxs"] = per_op(c["coarsen.coarsest_nvtxs"])

    m["initpart.share"] = ratio(tr.self_s["initpart"], tr.op_s)
    m["initpart.bisections"] = per_op(tr.calls["bisect"])
    m["initpart.bisect_s"] = per_op(incl["bisect"])
    m["initpart.candidates"] = per_op(tr.calls["candidate_fm"])
    m["initpart.candidate_fm_s"] = per_op(incl["candidate_fm"])
    m["initpart.rb_coarsen_s"] = per_op(incl["rb_coarsen"])
    m["initpart.rb_fm_s"] = per_op(incl["rb_fm"])
    m["initpart.subgraph_s"] = per_op(incl["subgraph"])

    m["refine.kway_s"] = per_op(incl["kway_refine"])
    m["refine.moves"] = per_op(c["refine.moves"])
    m["refine.passes"] = per_op(c["refine.passes"])
    m["refine.balance_moves"] = per_op(c["refine.balance_moves"])
    m["refine.gain_per_move"] = ratio(c["refine.cut_removed"], c["refine.moves"])
    m["refine.balance_s"] = per_op(incl["balance_kway"])
    m["refine.fm_rollback_share"] = ratio(c["fm.rollbacks"], c["fm.moves"])

    attempts = extra.get("warm_attempts", 0)
    m["adaptive.warm_s"] = per_op(incl["warm_start"])
    m["adaptive.balance_s"] = per_op(incl["adaptive_balance"])
    m["adaptive.refine_s"] = per_op(incl["adaptive_refine"])
    m["adaptive.warm_accept_share"] = ratio(
        attempts - extra.get("warm_rejected", 0), attempts)

    m["serve.key_ms"] = 1e3 * per_op(incl["request_key"])
    m["serve.cold_s"] = per_op(incl["cold"])
    m["serve.cold_computes"] = per_op(extra.get("cold_computes", 0))
    m["serve.warm_attempts"] = per_op(attempts)
    m["serve.warm_rejected"] = per_op(extra.get("warm_rejected", 0))
    m["serve.wait_s"] = (per_op(extra["serve_latency_s"] - incl["request_key"]
                                - incl["warm_start"] - incl["cold"])
                         if "serve_latency_s" in extra else 0.0)

    fabric_s = sum(incl[s] for s in ("spawn", "dispatch", "collective",
                                     "publish", "close"))
    m["parallel.spawn_s"] = per_op(incl["spawn"])
    m["parallel.dispatches"] = per_op(tr.calls["dispatch"])
    m["parallel.dispatch_s"] = per_op(incl["dispatch"])
    m["parallel.dispatch_ms"] = 1e3 * ratio(incl["dispatch"], tr.calls["dispatch"])
    m["parallel.collectives"] = per_op(tr.calls["collective"])
    m["parallel.collective_s"] = per_op(incl["collective"])
    m["parallel.publish_s"] = per_op(incl["publish"])
    m["parallel.close_s"] = per_op(incl["close"])
    m["parallel.driver_s"] = (per_op(tr.op_s - fabric_s)
                              if tr.calls["spawn"] else 0.0)
    m["parallel.bytes"] = per_op(extra.get("shm_bytes", 0))
    m["parallel.messages"] = per_op(extra.get("shm_messages", 0))
    m["parallel.serial_ratio"] = extra.get("serial_ratio", 0.0)
    return m


def self_time_gap(tr: LayerTrace) -> float:
    """``|sum of layer self times - op time|`` as a share of op time; zero
    up to float rounding unless frames escaped or overlapped their op."""
    total = sum(tr.self_s.values())
    return abs(total - tr.op_s) / tr.op_s if tr.op_s else 0.0
