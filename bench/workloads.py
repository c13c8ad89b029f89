"""The four workloads: inputs generated from the workload seed, one fixed
op list each, and the calls that run one op.

Every op list is replayed in whole rounds.  An op's ``key`` (cut and
partition digest, plus dispatch and message counts on shm-ranks) and the
counts ``end_round`` returns must repeat exactly in every round; see
``bench/README.md`` for why each workload exists and which layer it loads.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from repro.graph.generators import mesh_like
from repro.parallel import parallel_part_graph
from repro.partition import PartitionOptions, part_graph
from repro.serve import PartitionService, ServiceConfig
from repro.weights.generators import (coactivity_edge_weights,
                                      type1_region_weights, type2_multiphase)
from repro.weights.traces import drifting_phases_trace, moving_front_trace

@dataclass
class Outcome:
    """One op's output, kept for the audit after the timed window."""

    graph: object
    part: np.ndarray
    nparts: int
    edgecut: int
    #: exact-repeat fingerprint: plain ints and strings
    key: list
    #: workload-specific counts for the layer report (shm bytes, messages)
    extra: dict = field(default_factory=dict)


def _seeds(seed: int, tag: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, tag])
    return [int(x) for x in rng.integers(1, 2**31 - 1, size=n)]


def _digest(part) -> str:
    arr = np.ascontiguousarray(part, dtype=np.int64)
    return hashlib.sha1(arr.tobytes()).hexdigest()[:16]


def _type1_mesh(n: int, ncon: int, seed: int):
    g = mesh_like(n, seed=seed)
    return g.with_vwgt(type1_region_weights(g, ncon, seed=seed))


class _Serial:
    """Serial ``part_graph(method="kway")`` over ``self.ops``."""

    ops: list
    ubvec = 1.05

    def begin_round(self) -> None:
        pass

    def end_round(self) -> dict:
        return {}

    def run_op(self, i: int) -> Outcome:
        g, k, s = self.ops[i]
        res = part_graph(g, k, method="kway", seed=s, ubvec=self.ubvec)
        return Outcome(g, res.part, k, res.edgecut,
                       [int(res.edgecut), _digest(res.part)])

    def close(self) -> None:
        pass


class KwayLadder(_Serial):
    """Type-1 meshes (m=3) of 3,000 and 6,000 vertices at k=32 and k=16."""

    name = "kway-ladder"
    ngraphs = 16
    # At 5% about one op in 150 comes back (honestly) infeasible; none of
    # 384 did at 10%.
    ubvec = 1.10

    def __init__(self, seed: int):
        gseeds = _seeds(seed, 1, self.ngraphs)
        pseeds = _seeds(seed, 2, 2 * self.ngraphs)
        graphs = [_type1_mesh(3000 if i % 2 == 0 else 6000, 3, s)
                  for i, s in enumerate(gseeds)]
        self.ops = [(g, k, pseeds[2 * i + j])
                    for i, g in enumerate(graphs)
                    for j, k in enumerate((32, 16))]


class KwayLarge(_Serial):
    """48,000-vertex meshes with Type-2 weights (3 phases) and co-activity
    edge weights at k=8."""

    name = "kway-large"
    # 20 ops of ~0.55 s: two whole rounds fit a 20 s window.
    ngraphs = 10
    nseeds = 2

    def __init__(self, seed: int):
        gseeds = _seeds(seed, 1, self.ngraphs)
        pseeds = _seeds(seed, 2, self.ngraphs * self.nseeds)
        graphs = []
        for gs in gseeds:
            g = mesh_like(48000, seed=gs)
            vwgt, active = type2_multiphase(g, 3, seed=gs)
            graphs.append(g.with_vwgt(vwgt).with_adjwgt(
                coactivity_edge_weights(g, active)))
        # Seed-major order, so a round's prefix already spans every mesh.
        self.ops = [(graphs[i % self.ngraphs], 8, ps)
                    for i, ps in enumerate(pseeds)]


class ServeDrift:
    """One closed-loop client driving a single-worker service through
    moving-front traces (1,000-vertex meshes) and drifting-phases traces
    (1,500-vertex meshes) at k=8.  Each trace's first step is a cold
    compute; the later steps bring new weights on a cached topology and take
    the warm-start path.  Each round starts a fresh service, so every round
    sees the same dispositions."""

    name = "serve-drift"
    front_nvtxs = 1000
    phases_nvtxs = 1500
    nfront = 32
    nphases = 10
    nsteps = 7
    nparts = 8
    # At 10% a few warm starts per round end infeasible and fall back to a
    # cold compute, how many depending on the seed; at 15% one or two do.
    ubvec = 1.15
    # A band that starts at the source, or a narrow one, holds too little
    # weight to split 8 ways within tolerance: the warm start then ends
    # infeasible, and how often that happens varies a lot from mesh to mesh.
    front_span = (0.35, 0.65)
    front_width = 0.25
    drift = 0.05

    def __init__(self, seed: int):
        gseeds = _seeds(seed, 1, self.nfront + self.nphases)
        pseeds = _seeds(seed, 2, self.nfront + self.nphases)
        traces = []
        for gs in gseeds[:self.nfront]:
            g = mesh_like(self.front_nvtxs, seed=gs)
            # The front sweeps out from the mesh corner nearest the origin.
            corner = int(np.argmin(g.coords.sum(axis=1)))
            traces.append((g, moving_front_trace(
                g, self.nsteps, width=self.front_width, span=self.front_span,
                source=corner)))
        for gs in gseeds[self.nfront:]:
            g = mesh_like(self.phases_nvtxs, seed=gs)
            traces.append((g, drifting_phases_trace(
                g, self.nsteps, 3, drift=self.drift, seed=gs)))
        self.ops = [(g.with_vwgt(w), ps)
                    for (g, trace), ps in zip(traces, pseeds) for w in trace]
        self.svc = None

    def begin_round(self) -> None:
        self.svc = PartitionService(ServiceConfig(max_workers=1))

    def end_round(self) -> dict:
        st = self.svc.stats()
        self.svc.close()
        self.svc = None
        return {"cold_computes": st["serve.cold_computes"],
                "warm_attempts": st["serve.warm_start.attempts"],
                "warm_rejected": st["serve.warm_start.rejected"],
                "hits": st["serve.cache.hits"]}

    def run_op(self, i: int) -> Outcome:
        g, s = self.ops[i]
        res = self.svc.submit(g, self.nparts, seed=s, ubvec=self.ubvec).result()
        return Outcome(g, res.part, self.nparts, res.edgecut,
                       [int(res.edgecut), _digest(res.part)])

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()


class ShmRanks:
    """``parallel_part_graph(executor="shm", nranks=2)`` on Type-1 meshes
    (6,000 vertices, m=2) at k=8."""

    name = "shm-ranks"
    ngraphs = 8
    nseeds = 3
    nparts = 8
    nranks = 2
    ubvec = 1.05

    def __init__(self, seed: int):
        graphs = [_type1_mesh(6000, 2, gs)
                  for gs in _seeds(seed, 1, self.ngraphs)]
        self.ops = [(graphs[i % self.ngraphs], ps) for i, ps in
                    enumerate(_seeds(seed, 2, self.ngraphs * self.nseeds))]

    begin_round = _Serial.begin_round
    end_round = _Serial.end_round
    close = _Serial.close

    def run_op(self, i: int) -> Outcome:
        g, s = self.ops[i]
        res = parallel_part_graph(
            g, self.nparts, self.nranks, executor="shm",
            options=PartitionOptions(seed=s, ubvec=self.ubvec))
        if res.degraded:
            raise RuntimeError(f"shm run degraded: {res.degraded_reason}")
        return Outcome(g, res.part, self.nparts, res.edgecut,
                       [int(res.edgecut), _digest(res.part),
                        int(res.stats.dispatches),
                        int(res.stats.total_messages)],
                       {"shm_bytes": int(res.stats.total_bytes),
                        "shm_messages": int(res.stats.total_messages)})

    def serial_seconds(self, i: int) -> float:
        """Serial ``part_graph`` time on op ``i``'s input (the reference for
        ``parallel.serial_ratio``)."""
        g, s = self.ops[i]
        t0 = time.perf_counter()
        part_graph(g, self.nparts, seed=s, ubvec=self.ubvec)
        return time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (KwayLadder, KwayLarge, ServeDrift, ShmRanks)}
