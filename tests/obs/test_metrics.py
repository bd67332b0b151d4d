"""Counters, gauges, histograms, registry, and text exposition."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Registry,
    parse_exposition,
)


class TestCounter:
    def test_counts_per_label_set(self):
        counter = Counter("ops_total", "ops", ("op",))
        counter.inc(op="restrict")
        counter.inc(2, op="restrict")
        counter.inc(op="image")
        assert counter.value(op="restrict") == 3
        assert counter.value(op="image") == 1
        assert counter.value(op="never") == 0

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter("c_total").inc(-1)

    def test_rejects_wrong_labels(self):
        counter = Counter("c_total", "", ("op",))
        with pytest.raises(ValueError):
            counter.inc(node="x")
        with pytest.raises(ValueError):
            counter.inc()


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("depth")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value() == 7


class TestHistogram:
    def test_count_sum_and_bucket_assignment(self):
        histogram = Histogram("lat", "", (), buckets=(1, 10, 100))
        for value in (0.5, 5, 50, 500):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(555.5)
        rows = {name + suffix: value
                for name, suffix, value in histogram.samples()}
        assert rows['lat_bucket{le="1"}'] == 1
        assert rows['lat_bucket{le="10"}'] == 2
        assert rows['lat_bucket{le="100"}'] == 3
        assert rows['lat_bucket{le="+Inf"}'] == 4

    def test_percentile_interpolates_within_the_bucket(self):
        histogram = Histogram("lat", "", (), buckets=(10.0, 20.0))
        for _ in range(10):
            histogram.observe(15.0)  # all mass in the (10, 20] bucket
        assert histogram.percentile(50) == pytest.approx(15.0)
        assert histogram.percentile(100) == pytest.approx(20.0)

    def test_percentile_clamps_at_the_last_finite_bound(self):
        histogram = Histogram("lat", "", (), buckets=(1.0,))
        histogram.observe(1000.0)
        assert histogram.percentile(99) == 1.0

    def test_percentile_of_empty_is_zero(self):
        assert Histogram("lat").percentile(95) == 0.0

    def test_percentile_validates_q(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentile(0)
        with pytest.raises(ValueError):
            Histogram("lat").percentile(101)

    def test_rejects_empty_or_duplicate_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())
        with pytest.raises(ValueError):
            Histogram("lat", buckets=(1, 1))


class TestRegistry:
    def test_get_or_create_returns_the_same_metric(self):
        registry = Registry()
        first = registry.counter("a_total", "help", ("op",))
        second = registry.counter("a_total", "ignored", ("op",))
        assert first is second

    def test_kind_and_label_conflicts_raise(self):
        registry = Registry()
        registry.counter("a_total", "", ("op",))
        with pytest.raises(ValueError):
            registry.gauge("a_total")
        with pytest.raises(ValueError):
            registry.counter("a_total", "", ("node",))

    def test_invalid_names_raise(self):
        with pytest.raises(ValueError):
            Registry().counter("1bad")
        with pytest.raises(ValueError):
            Registry().counter("ok_total", "", ("bad-label",))

    def test_reset_clears_values_but_keeps_registrations(self):
        registry = Registry()
        registry.counter("a_total").inc(5)
        registry.reset()
        assert "a_total" in registry
        assert registry.counter("a_total").value() == 0

    def test_snapshot_delta_reports_only_changes(self):
        registry = Registry()
        counter = registry.counter("a_total", "", ("op",))
        counter.inc(3, op="x")
        before = registry.snapshot()
        counter.inc(2, op="x")
        registry.histogram("lat").observe(0.5)
        delta = registry.delta(before)
        assert delta['a_total{op="x"}'] == 2
        assert delta["lat_count"] == 1
        assert delta["lat_sum"] == pytest.approx(0.5)
        assert not registry.delta(registry.snapshot())


class TestExposition:
    def build(self) -> Registry:
        registry = Registry()
        registry.counter("repro_ops_total", "Ops.", ("op",)).inc(op="a")
        registry.gauge("repro_depth", "Depth.").set(2)
        registry.histogram(
            "repro_lat_seconds", "Latency.", ("op",), buckets=(0.1, 1.0)
        ).observe(0.05, op="a")
        return registry

    def test_expose_emits_help_type_and_samples(self):
        text = self.build().expose()
        assert "# HELP repro_ops_total Ops." in text
        assert "# TYPE repro_ops_total counter" in text
        assert 'repro_ops_total{op="a"} 1' in text
        assert "# TYPE repro_lat_seconds histogram" in text
        assert 'repro_lat_seconds_bucket{op="a",le="0.1"} 1' in text
        assert text.endswith("\n")

    def test_expose_skips_metrics_without_data(self):
        registry = Registry()
        registry.counter("repro_quiet_total", "Never incremented.")
        assert registry.expose() == ""

    def test_exposition_parses_and_groups_by_family(self):
        families = parse_exposition(self.build().expose())
        assert set(families) == {
            "repro_ops_total", "repro_depth", "repro_lat_seconds"
        }
        lat = dict(families["repro_lat_seconds"])
        assert lat["repro_lat_seconds_count{op=\"a\"}"] == 1

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_exposition("what even is this line\n")

    def test_parse_rejects_duplicate_metric_names(self):
        text = (
            "# TYPE repro_x_total counter\n"
            "repro_x_total 1\n"
            "# TYPE repro_x_total counter\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            parse_exposition(text)

    def test_parse_rejects_undeclared_samples(self):
        with pytest.raises(ValueError, match="no TYPE"):
            parse_exposition("repro_orphan_total 1\n")

    def test_label_values_are_escaped(self):
        registry = Registry()
        registry.counter("repro_odd_total", "", ("tag",)).inc(
            tag='quo"te\nnewline'
        )
        parse_exposition(registry.expose())  # must stay parseable


class TestExpositionEdgeCases:
    def test_trailing_backslash_label_survives_round_trip(self):
        registry = Registry()
        registry.counter("repro_path_total", "", ("path",)).inc(
            path="C:\\temp\\"
        )
        families = parse_exposition(registry.expose())
        (name, _value), = families["repro_path_total"]
        assert '\\\\' in name  # the backslashes are doubled on the wire

    def test_inf_bucket_row_is_explicit(self):
        registry = Registry()
        registry.histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 1.0)
        ).observe(30.0)
        text = registry.expose()
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1' in text
        families = parse_exposition(text)
        rows = dict(families["repro_lat_seconds"])
        assert rows['repro_lat_seconds_bucket{le="+Inf"}'] == 1
        assert rows['repro_lat_seconds_bucket{le="1"}'] == 0

    def test_infinite_gauge_values_render_per_spec(self):
        registry = Registry()
        registry.gauge("repro_limit", "Limit.").set(float("inf"))
        text = registry.expose()
        assert "repro_limit +Inf" in text
        parse_exposition(text)

    def test_negative_infinity_renders_per_spec(self):
        registry = Registry()
        registry.gauge("repro_floor", "Floor.").set(float("-inf"))
        assert "repro_floor -Inf" in registry.expose()

    def test_nan_gauge_values_render_per_spec(self):
        registry = Registry()
        registry.gauge("repro_odd", "Odd.").set(float("nan"))
        text = registry.expose()
        assert "repro_odd NaN" in text
        parse_exposition(text)

    def test_help_text_newlines_are_escaped(self):
        registry = Registry()
        registry.counter(
            "repro_doc_total", "line one\nline two \\ backslash"
        ).inc()
        text = registry.expose()
        assert "# HELP repro_doc_total line one\\nline two \\\\ backslash" \
            in text
        parse_exposition(text)  # no smuggled sample line


class TestExemplars:
    def build(self) -> Histogram:
        histogram = Histogram(
            "repro_lat_seconds", "Latency.", ("op",), buckets=(0.1, 1.0)
        )
        histogram.observe(0.05, exemplar="t-000001", op="a")
        histogram.observe(0.5, exemplar="t-000002", op="a")
        histogram.observe(30.0, exemplar="t-000003", op="a")
        return histogram

    def test_exemplars_link_buckets_to_trace_ids(self):
        assert self.build().exemplars(op="a") == {
            "0.1": "t-000001", "1": "t-000002", "+Inf": "t-000003"
        }

    def test_last_exemplar_per_bucket_wins(self):
        histogram = self.build()
        histogram.observe(0.06, exemplar="t-000009", op="a")
        assert histogram.exemplars(op="a")["0.1"] == "t-000009"

    def test_exemplars_are_per_label_combination(self):
        histogram = self.build()
        histogram.observe(0.05, exemplar="t-000042", op="b")
        assert histogram.exemplars(op="b") == {"0.1": "t-000042"}
        assert histogram.exemplars(op="a")["0.1"] == "t-000001"

    def test_observations_without_exemplars_leave_no_link(self):
        histogram = Histogram(
            "repro_lat_seconds", "Latency.", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        assert histogram.exemplars() == {}

    def test_exposition_stays_exemplar_free_and_parseable(self):
        registry = Registry()
        registry.histogram(
            "repro_lat_seconds", "Latency.", ("op",), buckets=(0.1, 1.0)
        ).observe(0.05, exemplar="t-000001", op="a")
        text = registry.expose()
        assert "t-000001" not in text  # API-only: the text format 0.0.4
        parse_exposition(text)        # has no exemplar syntax

    def test_reset_drops_exemplars(self):
        histogram = self.build()
        histogram.reset()
        assert histogram.exemplars(op="a") == {}


def test_every_family_the_source_can_register_is_documented():
    """docs/observability.md is the inventory: a ``repro_*`` family
    some ``counter(`` / ``gauge(`` / ``histogram(`` call in ``src/``
    names must appear there in full -- an undocumented metric is one
    nobody reads, and those are removed rather than kept.  The other
    way round too: a family in one of its table rows is one ``src/``
    registers, so a deleted family cannot leave its row behind."""
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parents[2]
    registration = re.compile(
        r"\.(?:counter|gauge|histogram)\(\s*\"(repro_[a-z_]+)\""
    )
    families = set()
    for path in (root / "src").rglob("*.py"):
        families.update(registration.findall(path.read_text()))
    assert len(families) >= 19  # the pattern still finds the call sites
    inventory = (root / "docs" / "observability.md").read_text()
    documented = set(re.findall(r"repro_[a-z_]+", inventory))
    assert sorted(families - documented) == []
    tabled = {
        family
        for line in inventory.splitlines()
        if line.lstrip().startswith("|")
        for family in re.findall(r"repro_[a-z_]+", line)
    }
    assert sorted(tabled - families) == []
