"""Self-tests of the benchmark's own parts.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TestReferences:
    def test_airy_zeros(self):
        assert refs.airy_zero(1) == pytest.approx(-2.338107410459767, rel=1e-14)
        assert refs.airy_zero(2) == pytest.approx(-4.087949444130970, rel=1e-14)
        assert refs.airy_zero(3) == pytest.approx(-5.520559828095551, rel=1e-14)

    def test_linear_well(self):
        # V = r: E_0 = 2^(-1/3) |a_1|
        assert refs.linear_energy(1.0, 0) == pytest.approx(1.8557570814, rel=1e-10)

    @pytest.mark.parametrize("nu,k,value", [
        (0.0, 1, 2.404825557695773), (0.0, 2, 5.520078110286311),
        (1.0, 1, 3.831705970207512), (2.0, 3, 11.61984117214906),
        (0.5, 1, math.pi), (0.5, 4, 4.0 * math.pi), (1.5, 1, 4.493409457909064),
    ])
    def test_bessel_zeros(self, nu, k, value):
        assert refs.bessel_zero(nu, k) == pytest.approx(value, rel=1e-13)

    def test_unit_box(self):
        # l = 0 levels of the unit 3-d box are (n pi)^2 / 2
        for n_r in range(3):
            assert refs.wall_energy(1.0, n_r, 0, 3) == \
                pytest.approx(((n_r + 1) * math.pi) ** 2 / 2.0, rel=1e-13)

    def test_coulomb(self):
        assert refs.coulomb_energy(1.0, 0, 0, 3) == -0.5
        assert refs.coulomb_energy(1.0, 0, 1, 3) == -0.125
        assert refs.coulomb_energy(2.0, 0, 1, 4) == pytest.approx(-0.32)
        assert refs.coulomb_energy(1.0, 0, 0, 2) == -2.0

    def test_oscillator(self):
        assert refs.oscillator_energy(0.5, 0, 0, 3) == 1.5
        assert refs.oscillator_energy(0.5, 1, 1, 3) == 4.5
        assert refs.oscillator_energy(0.5, 2, 0, 3) == 5.5

    def test_wall_chi(self):
        assert refs.wall_chi(1) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert refs.wall_chi(2) == pytest.approx(0.25, rel=1e-14)
        assert refs.wall_chi(3) == pytest.approx(2.0 / (3.0 * math.pi), rel=1e-14)


class TestStreams:
    N = 60

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_same_seed_same_stream(self, name):
        w = workloads.WORKLOADS[name]
        first = list(itertools.islice(w.stream(7), self.N))
        again = list(itertools.islice(w.stream(7), self.N))
        assert first == again

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_seeds_differ_after_the_anchors(self, name):
        w = workloads.WORKLOADS[name]
        n_anchors = len(w.anchors())
        a = list(itertools.islice(w.stream(1), self.N))
        b = list(itertools.islice(w.stream(2), self.N))
        assert a[:n_anchors] == b[:n_anchors]
        assert a[n_anchors:] != b[n_anchors:]

    @pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
    def test_every_deck_holds_each_stratum_once(self, name):
        w = workloads.WORKLOADS[name]
        n_anchors, size = len(w.anchors()), len(w.strata)
        items = list(itertools.islice(w.stream(3), n_anchors + 3 * size))[n_anchors:]
        tags = sorted(it.tag for it in items[:size])
        for k in range(1, 3):
            assert sorted(it.tag for it in items[k * size:(k + 1) * size]) == tags

    def test_anchors_are_pinned(self):
        pinned = workloads.load_anchors()
        for name, w in workloads.WORKLOADS.items():
            assert sorted(pinned[name]) == sorted(it.tag for it in w.anchors())


class TestSelfTime:
    def test_hand_built_tree(self):
        # a [0, 10] holds b [1, 4] and c [3, 6] (overlapping: 5 s covered)
        # and d [8, 9]; b holds e [2, 3]
        spans = [
            ["a", 0.0, 10.0, -1, 0],
            ["b", 1.0, 4.0, 0, 0],
            ["e", 2.0, 3.0, 1, 0],
            ["c", 3.0, 6.0, 0, 0],
            ["d", 8.0, 9.0, 0, 0],
        ]
        assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 1.0])

    def test_child_clipped_to_parent(self):
        spans = [["a", 0.0, 2.0, -1, 0], ["b", 1.0, 3.0, 0, 0]]
        assert tracing.self_times(spans) == pytest.approx([1.0, 2.0])

    def test_ancestor(self):
        spans = [["q", 0.0, 3.0, -1, 0], ["s", 0.5, 2.0, 0, 0], ["i", 1.0, 1.5, 1, 0],
                 ["i", 2.5, 2.8, -1, 0]]
        assert tracing.has_ancestor(spans, 2, "q")
        assert not tracing.has_ancestor(spans, 3, "q")


def test_benchmark_json_lists_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    class Empty:
        spans = []
        counts = {"potentials.W": 0}

    produced = tracing.layer_metrics(Empty(), [], [], import_s=1.0, tf_build_s=0.0,
                                     overhead=1.0)
    assert sorted(produced) == sorted(m["name"] for m in spec["per_layer"])


class TestClosedLoop:
    """The loop stops only at deck ends, after at least one deck."""

    @staticmethod
    def fake(delay):
        import time

        def run(item, anchors):
            time.sleep(delay)
            return workloads.Outcome(units=1)

        def make(tag):
            return lambda rng: workloads.ChiPoint(tag, f"fake:{rng.random()}", 0.0)

        return workloads.Workload(
            "fake", lambda: (workloads.ChiPoint("a1", "a1", 0.0),
                             workloads.ChiPoint("a2", "a2", 0.0)),
            (make("x"), make("y"), make("z")), run, "unit", trace_decks=1)

    def test_runs_one_deck_when_time_is_up(self):
        import worker

        w = self.fake(0.0)
        _, _, latencies, outcomes = worker.closed_loop(w, w.stream(1), {}, 0.0)
        assert len(outcomes) == len(latencies) == 5

    def test_finishes_the_deck_in_progress(self):
        import worker

        w = self.fake(0.01)
        wall, deck_wall, _, outcomes = worker.closed_loop(w, w.stream(1), {}, 0.035)
        assert len(outcomes) >= 5 and (len(outcomes) - 2) % 3 == 0
        assert 0.0 < deck_wall < wall

    def test_stops_at_the_nearer_deck_end(self):
        import worker

        # after the anchors, decks end near 0.03 s and 0.06 s; 0.03 s is
        # nearer to 0.04 s
        w = self.fake(0.01)
        _, deck_wall, _, outcomes = worker.closed_loop(w, w.stream(1), {}, 0.04)
        assert len(outcomes) == 5 and deck_wall < 0.04

    def test_a_raising_request_fails_and_is_counted(self):
        def run(item, anchors):
            raise ValueError("boom")

        w = workloads.Workload("fake", lambda: (), (), run, "unit", trace_decks=0)
        out = w.attempt(workloads.ChiPoint("t", "spec", 0.0), {})
        assert out.units == 0 and "ValueError: boom" in out.problems[0]
