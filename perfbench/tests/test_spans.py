import pytest

import spans


def span(sid, parent, start, end, metric="m", function="f", size=None):
    return (sid, parent, metric, function, start, end, size)


def test_self_time_subtracts_children_once_and_clips_them():
    tree = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 3.0),     # overlaps the next child (worker threads)
        span(3, 1, 2.0, 5.0),
        span(4, 1, 8.0, 12.0),    # clipped to the parent's end
        span(5, 3, 2.5, 4.5),     # grandchild: counts against 3, not 1
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[3] == pytest.approx(3.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[5] == pytest.approx(2.0)


def test_self_times_sum_to_the_root_without_threads():
    tree = [span(1, None, 0.0, 9.0, "a"), span(2, 1, 1.0, 4.0, "b"),
            span(3, 2, 2.0, 3.0, "c"), span(4, 1, 5.0, 6.0, "b")]
    totals = spans.metric_self_times(tree)
    assert totals == pytest.approx({"a": 5.0, "b": 3.0, "c": 1.0})
    assert sum(totals.values()) == pytest.approx(9.0)


def test_largest_eigh_and_layer_totals():
    tree = [span(1, None, 0.0, 4.0, "cli.run"),
            span(2, 1, 0.5, 2.5, "spectral.eigh", "spectral.eigendecompose", 100),
            span(3, 2, 2.0, 2.5, "spectral.validate"),
            span(4, 1, 3.0, 3.5, "spectral.eigh", "spectral.eigendecompose", 50),
            span(5, 1, 3.5, 3.75, "spectral.bessel_warm", "spectral.bessel_apply"),
            span(6, 1, 3.75, 3.875, "evolution.picard", "evolution.picard_solve")]
    assert spans.largest_eigh(tree) == (100, pytest.approx(1.5))
    metrics, detail = spans.layer_metrics(
        [{"wall": 5.0, "import_s": 0.5, "spans": tree, "counts": {"gridop.dofs": 150}}])
    assert metrics["spectral.eigh_s"] == pytest.approx(2.0)
    assert metrics["spectral.functions_s"] == pytest.approx(0.25)
    assert metrics["task.kernel_s"] == pytest.approx(0.125)
    assert detail["modules"]["cli.share"] == pytest.approx((0.5 + 1.125) / 5.0)
    assert detail["modules"]["spectral.share"] == pytest.approx(2.75 / 5.0)
    assert metrics["gridop.dofs"] == 150
    assert detail["unspanned_s"] == pytest.approx(0.5)
    assert detail["bessel_apply_us"] == pytest.approx(0.25e6)
