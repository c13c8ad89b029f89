"""Tests for the benchmark's own output audit and layer tracer.

    python3 -m pytest bench/test_audit.py -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from audit import audit_partition  # noqa: E402


def _path4():
    """Path 0-1-2-3 with edge weights 1, 5, 1 and unit vertex weights."""
    xadj = np.array([0, 1, 3, 5, 6])
    adjncy = np.array([1, 0, 2, 1, 3, 2])
    adjwgt = np.array([1, 1, 5, 5, 1, 1])
    vwgt = np.ones((4, 1), dtype=np.int64)
    return xadj, adjncy, adjwgt, vwgt


def test_valid_partition_passes():
    xadj, adjncy, adjwgt, vwgt = _path4()
    part = np.array([0, 0, 1, 1])
    assert audit_partition(xadj, adjncy, adjwgt, vwgt, part, 2, 5, 1.05) == []


def test_planted_wrong_cut_is_rejected():
    xadj, adjncy, adjwgt, vwgt = _path4()
    part = np.array([0, 0, 1, 1])
    assert audit_partition(xadj, adjncy, adjwgt, vwgt, part, 2, 4, 1.05) == ["cut"]


def test_empty_part_is_rejected():
    xadj, adjncy, adjwgt, vwgt = _path4()
    part = np.array([0, 0, 2, 2])  # part 1 of 3 is empty
    failed = audit_partition(xadj, adjncy, adjwgt, vwgt, part, 3, 5, 2.0)
    assert "empty_part" in failed


def test_overweight_part_is_rejected():
    xadj, adjncy, adjwgt, vwgt = _path4()
    part = np.array([0, 0, 0, 1])  # 3 of 4 units against a cap of 2.1
    assert audit_partition(xadj, adjncy, adjwgt, vwgt, part, 2, 1, 1.05) == ["balance"]


def test_overweight_second_constraint_is_rejected():
    xadj, adjncy, adjwgt, _ = _path4()
    vwgt = np.array([[1, 1], [1, 0], [1, 0], [1, 0]])
    part = np.array([0, 0, 1, 1])
    assert audit_partition(xadj, adjncy, adjwgt, vwgt, part, 2, 5, 1.05) == ["balance"]


@pytest.mark.parametrize("part", [np.array([0, 0, 1, 2]), np.array([0, 0, 1]),
                                  np.array([0.0, 0.0, 1.0, 1.0])])
def test_bad_ids_are_rejected(part):
    xadj, adjncy, adjwgt, vwgt = _path4()
    assert audit_partition(xadj, adjncy, adjwgt, vwgt, part, 2, 5, 1.05) == ["ids"]


def test_layer_trace_changes_nothing_and_adds_up():
    import layers
    from repro.graph.generators import mesh_like
    from repro.partition import part_graph
    from repro.weights.generators import type1_region_weights

    g = mesh_like(1200, seed=3)
    g = g.with_vwgt(type1_region_weights(g, 2, seed=3))
    plain = part_graph(g, 4, seed=5)
    trace = layers.install(layers.LayerTrace())
    try:
        with trace.op():
            traced = part_graph(g, 4, seed=5)
    finally:
        trace.uninstall()
    assert np.array_equal(plain.part, traced.part)
    assert layers.self_time_gap(trace) < 1e-9 and trace.overlaps == 0
    assert trace.calls["coarsen"] == 1 and trace.calls["bisect"] >= 3
    assert trace.self_s["initpart"] > 0 and trace.self_s["refine"] > 0
    import repro.partition.kway as kway
    assert kway.coarsen.__module__ == "repro.coarsen.coarsener"
    assert not hasattr(kway.coarsen, "__wrapped__")
