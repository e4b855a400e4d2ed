"""Shared structural-diff core."""

import pytest

from repro.obs.structdiff import (
    DiffEntry,
    format_entries,
    structural_diff,
)


def test_equal_values_yield_no_entries():
    value = {"a": [1, {"b": 2}], "c": None}
    assert structural_diff(value, value) == []
    assert structural_diff(value, value, max_entries=1) == []


def test_changed_leaf_reports_both_values():
    [entry] = structural_diff({"x": {"y": 1}}, {"x": {"y": 2}})
    assert entry == DiffEntry("x.y", "changed", 1, 2)
    assert entry.render() == "x.y: a=1 b=2"
    assert entry.render("snapshot", "replay") == "x.y: snapshot=1 replay=2"


def test_missing_and_extra_keys():
    entries = structural_diff({"only_a": 1, "both": 0}, {"only_b": 2, "both": 0})
    assert [(e.path, e.kind) for e in entries] == [
        ("only_a", "missing"),
        ("only_b", "extra"),
    ]
    assert "only in a" in entries[0].render()
    assert "only in b" in entries[1].render()


def test_list_index_paths_and_length_entry():
    entries = structural_diff({"xs": [1, 2, 3]}, {"xs": [1, 9]})
    assert [(e.path, e.kind) for e in entries] == [
        ("xs[1]", "changed"),
        ("xs", "length"),
    ]
    assert entries[1].left == 3 and entries[1].right == 2
    assert "length 3" in entries[1].render()


def test_type_mismatch_is_a_changed_leaf():
    [entry] = structural_diff({"v": [1]}, {"v": {"0": 1}})
    assert entry.kind == "changed" and entry.path == "v"


def test_entry_order_is_deterministic_sorted_keys():
    a = {"z": 1, "a": 1, "m": 1}
    b = {"z": 2, "a": 2, "m": 2}
    assert [e.path for e in structural_diff(a, b)] == ["a", "m", "z"]


def test_max_entries_bounds_the_walk():
    a = {str(i): i for i in range(50)}
    b = {str(i): i + 1 for i in range(50)}
    assert len(structural_diff(a, b, max_entries=3)) == 3
    [first] = structural_diff(a, b, max_entries=1)
    assert first.path == "0"


def test_diff_paths_renders_strings():
    entries = structural_diff({"k": 1}, {"k": 2}, max_entries=1)
    assert [e.render() for e in entries] == ["k: a=1 b=2"]


def test_format_entries_elides_past_the_limit():
    entries = structural_diff(
        {str(i): i for i in range(9)}, {str(i): -i for i in range(9)}
    )
    text = format_entries(entries, limit=2, left_label="x", right_label="y")
    assert text.count("x=") == 2
    assert "(+6 more)" in text  # key "0" is equal on both sides


def test_as_dict_is_json_safe():
    class Weird:
        def __repr__(self):
            return "<weird>"

    entry = DiffEntry("p", "changed", left=Weird(), right=(1, 2))
    d = entry.as_dict()
    assert d == {"path": "p", "kind": "changed", "a": "<weird>", "b": [1, 2]}


def test_scalar_root_diff():
    [entry] = structural_diff(1, 2)
    assert entry.path == "" and entry.kind == "changed"


@pytest.mark.parametrize("value", [None, 0, "", [], {}])
def test_falsy_values_compare_cleanly(value):
    assert structural_diff(value, value) == []
