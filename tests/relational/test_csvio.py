"""CSV import/export: inference, converters, round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError
from repro.relational.csvio import dumps_csv, loads_csv, read_csv, write_csv
from repro.relational.relation import Relation
from repro.workloads.generators import employee_relation


class TestLoads:
    def test_type_inference(self):
        rel = loads_csv("k,v,w\n1,2.5,hello\n")
        row = list(rel.iter_dicts())[0]
        assert row == {"k": 1, "v": 2.5, "w": "hello"}
        assert isinstance(row["k"], int)
        assert isinstance(row["v"], float)

    def test_a_name_that_reads_as_nan_stays_its_text(self):
        # float() reads "Nan" as nan, which no set can hold; inf it keeps.
        rel = loads_csv("name,n\nNan,1\nInf,2\n")
        assert sorted(rel.to_rows(), key=repr) == [
            ("Nan", 1), (float("inf"), 2)]
        row = next(row for row in rel.iter_dicts() if row["n"] == 2)
        assert type(row["name"]) is float

    def test_empty_cells_are_none(self):
        rel = loads_csv("a,b\n1,\n")
        assert list(rel.iter_dicts())[0] == {"a": 1, "b": None}

    def test_explicit_converters(self):
        rel = loads_csv("k\n007\n", converters={"k": str})
        assert list(rel.iter_dicts())[0] == {"k": "007"}

    def test_unknown_converter_column(self):
        with pytest.raises(SchemaError, match="unknown columns"):
            loads_csv("k\n1\n", converters={"nope": int})

    def test_no_heading(self):
        with pytest.raises(SchemaError, match="no heading"):
            loads_csv("")

    def test_ragged_rows_rejected(self):
        with pytest.raises(SchemaError, match="line 3"):
            loads_csv("a,b\n1,2\n3\n")

    def test_blank_lines_skipped(self):
        rel = loads_csv("a\n1\n\n2\n")
        assert rel.cardinality() == 2

    def test_quoted_commas(self):
        rel = loads_csv('a,b\n"x,y",2\n')
        assert list(rel.iter_dicts())[0]["a"] == "x,y"

    def test_duplicate_rows_collapse_as_sets_do(self):
        rel = loads_csv("a\n1\n1\n")
        assert rel.cardinality() == 1


class TestDumps:
    def test_heading_order(self):
        rel = Relation.from_dicts(["b", "a"], [{"b": 2, "a": 1}])
        assert dumps_csv(rel) == "b,a\n2,1\n"

    def test_column_selection(self):
        rel = Relation.from_dicts(["a", "b"], [{"a": 1, "b": 2}])
        assert dumps_csv(rel, columns=["b"]) == "b\n2\n"

    def test_unknown_column(self):
        rel = Relation.from_dicts(["a"], [{"a": 1}])
        with pytest.raises(SchemaError):
            dumps_csv(rel, columns=["zzz"])

    def test_none_round_trips_as_empty(self):
        rel = Relation.from_dicts(["a"], [{"a": None}])
        assert loads_csv(dumps_csv(rel)) == rel

    def test_deterministic_output(self):
        rel = employee_relation(20, 3, seed=4)
        assert dumps_csv(rel) == dumps_csv(rel)


class TestRoundTrips:
    def test_workload_round_trip(self):
        rel = employee_relation(50, 5, seed=9)
        assert loads_csv(dumps_csv(rel)) == rel

    def test_file_round_trip(self, tmp_path):
        rel = employee_relation(25, 4, seed=2)
        path = str(tmp_path / "emp.csv")
        write_csv(rel, path)
        assert read_csv(path) == rel

    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "k": st.integers(min_value=-100, max_value=100),
                    "name": st.text(
                        alphabet="abcdefg XYZ,;'", min_size=0, max_size=8
                    ),
                }
            ),
            max_size=8,
        )
    )
    def test_generated_round_trip(self, rows):
        # Empty strings come back as None (documented); exclude them.
        rows = [row for row in rows if row["name"] != ""]
        # Avoid numeric-looking strings, which inference retypes.
        rows = [
            row for row in rows
            if not _numeric_looking(row["name"])
        ]
        rel = Relation.from_dicts(["k", "name"], rows)
        assert loads_csv(dumps_csv(rel)) == rel


def _numeric_looking(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
