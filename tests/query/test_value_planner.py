"""Access-path planning: choices, estimates, describe() and rebinding."""

from collections import Counter

import pytest

from repro.datasets import figure1_document
from repro.monet.mutate import delete_document, put_document
from repro.monet.transform import monet_transform
from repro.query.executor import QueryProcessor
from repro.query.parser import parse_query
from repro.query.planner import (
    ACCESS_FULLTEXT,
    ACCESS_SCAN,
    ACCESS_VALUE_INDEX,
    _cardinalities,
    plan_query,
)
from repro.valueindex import clear_value_index_cache, get_value_index


def condition_plan(plan, index=0):
    return plan.condition_plans[index]


class TestAccessChoice:
    def test_equality_prefers_value_index(self, figure1_store):
        plan = plan_query(
            parse_query("select $a from # $a where $a = 'Bit'"),
            figure1_store,
        )
        chosen = condition_plan(plan)
        assert chosen.access == ACCESS_VALUE_INDEX
        assert chosen.detail == "value-index probe"

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_range_prefers_value_index(self, figure1_store, op):
        plan = plan_query(
            parse_query(f"select $a from # $a where $a {op} '1999'"),
            figure1_store,
        )
        chosen = condition_plan(plan)
        assert chosen.access == ACCESS_VALUE_INDEX
        assert chosen.detail == f"value-index range ({op})"

    def test_contains_token_uses_fulltext(self, figure1_store):
        plan = plan_query(
            parse_query("select $a from # $a where $a contains 'Bit'"),
            figure1_store,
        )
        assert condition_plan(plan).access == ACCESS_FULLTEXT

    def test_contains_substring_needle_scans(self, figure1_store):
        # "Hack&" is one token but not token-shaped as a whole: the
        # engine substring-scans, and the plan must say so.
        plan = plan_query(
            parse_query("select $a from # $a where $a contains 'Hack&'"),
            figure1_store,
        )
        chosen = condition_plan(plan)
        assert chosen.access == ACCESS_SCAN
        assert "substring" in chosen.detail

    def test_force_scan_pins_every_predicate(self, figure1_store):
        plan = plan_query(
            parse_query(
                "select $a from # $a where $a = 'Bit' and $a >= '1999'"
            ),
            figure1_store,
            force_scan=True,
        )
        assert plan.forced_scan
        for chosen in plan.condition_plans:
            assert chosen.access == ACCESS_SCAN
            assert "forced" in chosen.detail


class TestEstimates:
    def test_warm_index_gives_exact_equality_estimate(self, figure1_store):
        index = get_value_index(figure1_store)
        plan = plan_query(
            parse_query("select $a from # $a where $a = '1999'"),
            figure1_store,
        )
        chosen = condition_plan(plan)
        assert chosen.estimated_rows == len(index.lookup_eq("1999")) == 2
        assert chosen.scan_cost == index.entry_count

    def test_cold_index_estimates_none_and_never_builds(self, figure1_store):
        from repro.valueindex import value_index_cache_info

        clear_value_index_cache()
        plan = plan_query(
            parse_query("select $a from # $a where $a = '1999'"),
            figure1_store,
        )
        assert condition_plan(plan).estimated_rows is None
        # Planning peeks; only execution pays a build.
        assert value_index_cache_info().builds == 0

    @pytest.mark.parametrize("writes", [0, 3])
    def test_cardinalities_count_the_live_store(self, writes):
        store = monet_transform(figure1_document())
        memos = [
            "<memo><title>Bit Shift</title><year>1999</year></memo>",
            "<memo key='m2'><title>Byte</title></memo>",
        ]
        for step in range(writes):
            if step < len(memos):
                put_document(store, f"memo-{step}", memos[step])
            else:
                delete_document(store, "memo-0")
        live = list(store.iter_live_oids())
        associations = Counter(
            store.summary.pid(store.path_of(oid).attribute(name))
            for oid in live
            for name in store.attributes_of(oid)
        )
        pid_counts, association_counts = _cardinalities(store)
        assert pid_counts == Counter(store.pid_of(oid) for oid in live)
        assert association_counts == associations

    def test_unbound_parameter_estimates_none(self, figure1_store):
        plan = plan_query(
            parse_query("select $a from # $a where $a = $v"), figure1_store
        )
        chosen = condition_plan(plan)
        assert chosen.access == ACCESS_VALUE_INDEX
        assert chosen.estimated_rows is None
        assert "$v" in chosen.render()


class TestDescribeAndExplain:
    def test_describe_payload_shape(self, figure1_store):
        plan = plan_query(
            parse_query("select $a from # $a where $a = 'Bit'"),
            figure1_store,
        )
        payload = plan.describe()
        assert payload["mode"] == "enumeration"
        assert payload["forced_scan"] is False
        (variable,) = payload["variables"]
        assert variable["variable"] == "a" and variable["relations"] > 0
        (cond,) = payload["conditions"]
        assert cond["access"] == ACCESS_VALUE_INDEX
        assert cond["predicate"] == "$a = 'Bit'"

    def test_explain_renders_access_paths(self, figure1_store):
        processor = QueryProcessor(figure1_store, None)
        text = "select $a from # $a where $a = 'Bit' and $a contains '1999'"
        explained = processor.explain(text)
        assert "via value-index probe" in explained
        assert "via fulltext token postings" in explained


class TestRebound:
    def test_rebound_shares_schema_and_replans_predicates(self, figure1_store):
        get_value_index(figure1_store)  # warm, so estimates are exact
        template = parse_query("select $a from # $a where $a = $v")
        plan = plan_query(template, figure1_store)
        assert condition_plan(plan).estimated_rows is None
        bound = plan.rebound(template.bind({"v": "Bit"}))
        # Schema half reused as-is; predicate half re-planned.
        assert bound.variables is plan.variables
        assert condition_plan(bound).estimated_rows == 1
        assert "'Bit'" in condition_plan(bound).render()

    def test_rebound_preserves_forced_scan(self, figure1_store):
        template = parse_query("select $a from # $a where $a = $v")
        plan = plan_query(template, figure1_store, force_scan=True)
        bound = plan.rebound(template.bind({"v": "Bit"}))
        assert bound.forced_scan
        assert condition_plan(bound).access == ACCESS_SCAN

    def test_condition_plan_for_matches_bound_copy(self, figure1_store):
        template = parse_query("select $a from # $a where $a = 'Bit'")
        plan = plan_query(template, figure1_store)
        # An equal-but-distinct condition object still resolves.
        twin = parse_query("select $a from # $a where $a = 'Bit'")
        assert plan.condition_plan_for(twin.conditions[0]) is not None
        assert plan.condition_plan_for(
            parse_query("select $a from # $a where $a = 'Zzz'").conditions[0]
        ) is None
