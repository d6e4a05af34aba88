"""The exact percentile helper against numpy, with no tolerance.

Every percentile in the program (the QoS detector's windowed p95, the run
summary's LC tail, the native VPA recommender) goes through
:func:`repro.metrics.window.percentile`, which must equal
``float(np.percentile(values, q))`` bit for bit so that replacing numpy
leaves every fingerprint unchanged.  numpy is only the oracle here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster.resources import ResourceVector
from repro.hrm.qos import QoSDetector
from repro.kube.vpa import NativeVPA
from repro.metrics.collectors import RunMetrics
from repro.metrics.window import TimeWindow, percentile


def oracle(values, q):
    return float(np.percentile(values, q))


def same(a, b):
    """Equal including the sign of zero."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


magnitudes = st.floats(min_value=1e-6, max_value=1e4)
signed = st.builds(lambda m, neg: -m if neg else m, magnitudes, st.booleans())
quantiles = st.one_of(
    st.sampled_from([50, 95, 99, 50.0, 95.0, 99.0, 0, 100]),
    st.floats(min_value=0.0, max_value=100.0),
)


@st.composite
def windows(draw):
    """1-64 values: free draws, ties from a small palette, or constant."""
    n = draw(st.integers(min_value=1, max_value=64))
    shape = draw(st.sampled_from(["free", "ties", "constant"]))
    if shape == "free":
        return draw(st.lists(signed, min_size=n, max_size=n))
    if shape == "ties":
        palette = draw(st.lists(signed, min_size=1, max_size=4))
        return draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    return [draw(signed)] * n


class TestHelper:
    @settings(max_examples=600, deadline=None)
    @given(windows(), quantiles)
    def test_equals_numpy(self, values, q):
        assert same(percentile(values, q), oracle(values, q))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=-10_000, max_value=10_000),
                 min_size=1, max_size=64),
        quantiles,
    )
    def test_equals_numpy_on_integers(self, values, q):
        assert same(percentile(values, q), oracle(values, q))

    def test_input_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(values, 95) == percentile(sorted(values), 95)
        assert values == [5.0, 1.0, 4.0, 2.0, 3.0]  # not sorted in place

    def test_upper_interpolation_branch(self):
        """t >= 0.5 uses numpy's ``b - d * (1 - t)``, which rounds
        differently from ``a + d * t`` on these values."""
        a, b = 1.2, 2.2
        t = 95 / 100
        assert a + (b - a) * t != b - (b - a) * (1 - t)
        assert percentile([b, a], 95) == oracle([b, a], 95) == 2.15

    def test_empty_is_none(self):
        assert percentile([], 95) is None

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestCallers:
    @settings(max_examples=100, deadline=None)
    @given(windows(), quantiles)
    def test_run_metrics_lc_tail(self, values, q):
        metrics = RunMetrics()
        metrics.lc_latencies_ms = list(values)
        assert same(metrics.lc_tail_latency_ms(q), oracle(values, q))

    def test_run_metrics_lc_tail_empty(self):
        assert RunMetrics().lc_tail_latency_ms() is None

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(magnitudes, magnitudes), min_size=1, max_size=40))
    def test_vpa_recommender(self, usages):
        vpa = NativeVPA()
        for cpu, memory in usages:
            vpa.observe("p", ResourceVector(cpu=cpu, memory=memory))
        history = usages[-vpa.history_len:]
        rec = vpa.recommend("p")
        q = NativeVPA.TARGET_PERCENTILE
        assert rec.target.cpu == oracle([c for c, _ in history], q) * NativeVPA.MARGIN
        assert rec.target.memory == (
            oracle([m for _, m in history], q) * NativeVPA.MARGIN
        )

    def test_time_window_p95(self):
        window = TimeWindow(horizon_ms=50.0)
        for i in range(30):
            window.add(float(i * 3), math.sin(i) * 100.0)
        assert window.p95() == oracle(window.values(), 95.0)


# --------------------------------------------------------------------- #
# the QoS detector's live windows
# --------------------------------------------------------------------- #
NODES = ["n0", "n1"]
SERVICES = ["a", "b"]

#: one op: its kind (weighted so windows grow past ``min_keep`` between
#: purges), the (node, service) it
#: targets, an observe's time step and latency, a read's look-ahead past
#: the last completion (None: no expiry) and its q (mostly repeated values,
#: so reads hit the per-percentile memo).
op = st.tuples(
    st.sampled_from(["purge"] + ["read"] * 3 + ["observe"] * 6),
    st.sampled_from(NODES),
    st.sampled_from(SERVICES),
    st.floats(min_value=0.0, max_value=10.0),
    magnitudes,
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=300.0)),
    st.one_of(st.just(95.0), st.sampled_from([50.0, 99.0]), quantiles),
)


@settings(max_examples=200, deadline=None)
@example(  # a memoised tail, then expiry on read: the memo must drop
    min_keep=1,
    ops=[
        ("observe", "n0", "a", 0.0, 500.0, None, 95.0),
        ("observe", "n0", "a", 10.0, 1.0, None, 95.0),
        ("read", "n0", "a", 0.0, 1.0, None, 95.0),
        ("read", "n0", "a", 0.0, 1.0, 200.0, 95.0),
    ],
)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(op, min_size=20, max_size=120),
)
def test_detector_tail_matches_numpy_on_live_window(min_keep, ops):
    """Interleaved observe / expire-on-read / purge_node: every read equals
    numpy's percentile over the samples the window holds after the read,
    so neither the memo cache nor expiry can serve a stale tail."""
    det = QoSDetector(window_ms=100.0, min_keep=min_keep)
    now = 0.0
    for kind, node, service, step, latency, ahead, q in ops:
        if kind == "observe":
            now += step
            det.observe(node, service, now, latency)
        elif kind == "read":
            read_at = None if ahead is None else now + ahead
            tail = det.tail_latency_ms(node, service, q, now_ms=read_at)
            live = [s.latency_ms for s in det._samples.get((node, service), ())]
            if not live:
                assert tail is None
            else:
                assert same(tail, oracle(live, q))
                # a second read is served from the memo and must agree
                assert same(det.tail_latency_ms(node, service, q), tail)
        else:
            det.purge_node(node)
            for other in SERVICES:
                assert det.tail_latency_ms(node, other) is None
