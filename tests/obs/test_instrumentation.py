"""The switch and the kernel hooks: off is silent, on is complete."""

import pytest

from repro.obs import instrument, metrics
from repro.relational.algebra import Comparison
from repro.relational.query import Database, Join, Project, Restrict, Scan
from repro.relational.relation import Relation
from repro.xst.builders import xset, xtuple
from repro.xst.image import cst_image
from repro.xst.relative_product import cst_relative_product
from repro.xst.restrict import sigma_restrict
from repro.xst.closure import transitive_closure
from repro.xst.builders import xpair


@pytest.fixture
def clean_registry():
    registry = metrics.registry()
    registry.reset()
    yield registry
    registry.reset()


@pytest.fixture
def obs_on():
    previous = instrument.set_enabled(True)
    yield
    instrument.set_enabled(previous)


def pair_rel():
    return xset(xtuple([index, index % 3]) for index in range(12))


class TestSwitch:
    def test_default_tracks_environment(self):
        # The suite runs with and without REPRO_OBS=1 in CI; either
        # way the switch and the env var must agree at import time.
        import os

        env = os.environ.get("REPRO_OBS", "").strip().lower()
        assert instrument.enabled() == (env in ("1", "true", "yes", "on"))

    def test_set_enabled_returns_previous(self):
        previous = instrument.set_enabled(True)
        try:
            assert instrument.set_enabled(True) is True
        finally:
            instrument.set_enabled(previous)

    def test_observed_restores_on_exit(self):
        before = instrument.enabled()
        with instrument.observed() as registry:
            assert instrument.enabled()
            assert registry is metrics.registry()
        assert instrument.enabled() == before


class TestKernelHooksOff:
    def test_disabled_records_nothing(self, clean_registry):
        previous = instrument.set_enabled(False)
        try:
            cst_image(pair_rel(), xset([xtuple([1])]))
            sigma_restrict(pair_rel(), xset([xtuple([1])]), xtuple([1]))
            assert clean_registry.delta({}) == {}
        finally:
            instrument.set_enabled(previous)


class TestKernelHooksOn:
    def test_ops_and_cardinalities_are_recorded(self, clean_registry, obs_on):
        relation = pair_rel()
        keys = xset([xtuple([1])])
        before = clean_registry.snapshot()
        cst_image(relation, keys)
        delta = clean_registry.delta(before)
        assert delta['repro_xst_op_total{op="image"}'] == 1
        # image delegates to restrict + domain, which also count.
        assert delta['repro_xst_op_total{op="restrict"}'] == 1
        assert delta['repro_xst_op_total{op="domain"}'] == 1
        assert delta['repro_xst_rows_in_total{op="image"}'] == (
            len(relation) + len(keys)
        )
        assert delta['repro_xst_op_seconds_count{op="image"}'] == 1

    def test_rows_out_matches_result(self, clean_registry, obs_on):
        left = xset([xpair("a", "b")])
        right = xset([xpair("b", "c")])
        result = cst_relative_product(left, right)
        assert clean_registry.counter(
            "repro_xst_rows_out_total", "", ("op",)
        ).value(op="relative_product") == len(result)

    def test_closure_counts_one_invocation(self, clean_registry, obs_on):
        chain = xset(xpair(index, index + 1) for index in range(6))
        transitive_closure(chain)
        assert clean_registry.counter(
            "repro_xst_op_total", "", ("op",)
        ).value(op="closure") == 1

    def test_results_are_identical_on_and_off(self):
        relation = pair_rel()
        keys = xset([xtuple([1]), xtuple([4])])
        previous = instrument.set_enabled(False)
        try:
            plain = cst_image(relation, keys)
            instrument.set_enabled(True)
            observed_result = cst_image(relation, keys)
        finally:
            instrument.set_enabled(previous)
        assert plain == observed_result


class TestPlanHooks:
    def plan_db(self):
        db = Database()
        db.add("emp", Relation.from_dicts(
            ["name", "dept"],
            [{"name": "ada", "dept": 1}, {"name": "bob", "dept": 2}],
        ))
        db.add("dept", Relation.from_dicts(
            ["dept", "dname"],
            [{"dept": 1, "dname": "eng"}, {"dept": 2, "dname": "ops"}],
        ))
        return db

    def test_execute_emits_spans_when_enabled(self, clean_registry, obs_on):
        from repro.obs.trace import tracer

        db = self.plan_db()
        plan = Project(Join(Scan("emp"), Restrict(Scan("dept"),
                (Comparison("dept", "=", 1),))),
                       ["name"])
        tracer().reset()
        result = db.execute(plan)
        root = tracer().last_root()
        assert root.name == "Project(name)"
        assert root.attrs["rows"] == result.cardinality()
        assert [child.name for child in root.children] == ["Join"]
        assert clean_registry.counter(
            "repro_plan_node_total", "", ("node",)
        ).value(node="Scan") == 2

    def test_execute_result_identical_with_obs(self, obs_on):
        db = self.plan_db()
        plan = Join(Scan("emp"), Scan("dept"))
        with_obs = db.execute(plan)
        previous = instrument.set_enabled(False)
        try:
            without = db.execute(plan)
        finally:
            instrument.set_enabled(previous)
        assert with_obs == without

    def test_execute_still_rejects_unknown_nodes(self, obs_on):
        with pytest.raises(TypeError):
            self.plan_db().execute("not a plan")
