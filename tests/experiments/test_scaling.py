"""Unit-level checks of the scaling-sweep experiment."""

import math

import pytest

from repro.experiments import scaling


@pytest.fixture(scope="module")
def point():
    return scaling.measure(24, seed=9, sample_pairs=120)


def test_all_pairs_routable(point):
    assert point.unreachable == 0


def test_hops_reasonable_for_small_ring(point):
    assert 1.0 <= point.mean_hops <= 5.0
    assert point.p95_hops <= 10


def test_joins_fast(point):
    assert 0.0 < point.mean_join_s < 10.0


def test_normalisation_math(point):
    expected = point.mean_hops / (math.log2(24) ** 2)
    assert point.hops_per_log2n_sq == pytest.approx(expected)


def test_report_renders(capsys, point):
    scaling.report([point])
    out = capsys.readouterr().out
    assert "Overlay scaling sweep" in out
    assert "24" in out


def test_run_works_with_its_own_defaults():
    points = scaling.run()
    assert [p.n_nodes for p in points] == [32, 64, 128]
    assert all(p.unreachable == 0 for p in points)
