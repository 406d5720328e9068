"""The tracer: self time, wrapping and restoring, per-layer counts."""

import numpy as np
import pytest

import dpquant.harness
import dpquant.schemes
from dpquant.lattice import Lattice, scaled_integer
from dpquant.prob import SourceModel, gaussian
from dpquant.schemes import TransformDpq

from perfbench import tracing


def test_self_time_subtracts_union_of_children():
    tr = tracing.Tracer()
    # parent [0, 10]; children [1, 4] and [3, 6] overlap (worker threads),
    # [8, 12] runs past the parent's end.
    tr.spans = [(1, "p", 0.0, 10.0, None, None),
                (2, "c", 1.0, 4.0, 1, None),
                (3, "c", 3.0, 6.0, 1, None),
                (4, "c", 8.0, 12.0, 1, None)]
    totals = tr.span_totals()
    assert totals["p"]["s"] == 10.0
    assert totals["p"]["self_s"] == 10.0 - 5.0 - 2.0
    assert totals["c"]["calls"] == 3
    assert totals["c"]["s_max"] == 4.0


def test_wrappers_are_restored():
    before = (SourceModel.cdf, Lattice.nearest_point, dpquant.harness.evaluate,
              dpquant.schemes.dpq_transform)
    tr = tracing.Tracer()
    with tr.installed():
        assert SourceModel.cdf is not before[0]
    after = (SourceModel.cdf, Lattice.nearest_point, dpquant.harness.evaluate,
             dpquant.schemes.dpq_transform)
    assert before == after


def test_absent_target_raises_and_restores(monkeypatch):
    before = SourceModel.cdf
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("dpquant.harness", "no_such_entry_point", "absent", None)])
    tr = tracing.Tracer()
    with pytest.raises(AttributeError):
        with tr.installed():
            pass
    assert SourceModel.cdf is before


def test_cube_transform_counts():
    n = 10_000
    scheme = TransformDpq(gaussian(0, 1), 3, scaled_integer(0.5))
    tr = tracing.Tracer()
    with tr.installed():
        dpquant.harness.evaluate(scheme, n, 3)
    m = tr.layer_metrics(passes=1)
    assert m["transform.cdf_evals_per_item"] == 32
    assert m["transform.dpq_transform.items"] == n
    # the evaluation draws n samples, the rate estimator 16 more sets of n
    assert m["prob.sample.items"] == 17 * n
    # the rate is estimated from fresh samples only
    assert m["ecdq.rate_reuse_ratio"] == 0
    assert m["harness.evaluate.calls"] == 1
    assert 0 < m["harness.evaluate.self_s"] < m["harness.evaluate.s"]


def test_rate_from_evaluated_indices_has_reuse_ratio_one(monkeypatch):
    # A rate estimator that is handed the evaluation's indices and encodes
    # nothing of its own reuses all of them.
    def rate_from_indices(lat, model, indices):
        _, counts = np.unique(indices, axis=0, return_counts=True)
        return float(counts.size), 0.0

    monkeypatch.setattr(dpquant.harness, "ecdq_rate_empirical",
                        rate_from_indices)
    tr = tracing.Tracer()
    with tr.installed():
        dpquant.harness.ecdq_rate_empirical(
            scaled_integer(1.0), gaussian(0, 1),
            np.arange(100, dtype=np.int64).reshape(100, 1))
    assert tr.layer_metrics(passes=1)["ecdq.rate_reuse_ratio"] == 1
