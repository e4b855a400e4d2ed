"""The artifact codec: atomic writers and the one read error contract.

Every ``repro-*/N`` file is read through :mod:`repro.ioutil`, directly or
through a reader that hides a file layout.  A damaged file -- missing, not
UTF-8, not JSON, not an object, the wrong schema, or a torn JSONL line --
raises ``ValueError`` naming the path; a checkpoint snapshot raises
``CheckpointError``.
"""

from __future__ import annotations

import re

import pytest

from repro.ioutil import (
    atomic_write_json,
    atomic_write_jsonl,
    atomic_write_text,
    read_json,
    read_jsonl,
)
from repro.obs.forensics import load_trace_events
from repro.obs.timeseries import SERIES_SCHEMA, read_series_jsonl
from repro.resilience.checkpoint import CheckpointError, load_snapshot

_META = b'{"schema": "repro-telemetry/1"}\n'

#: File contents per kind of damage; None leaves the file missing.
DAMAGE = {
    "missing": None,
    "not_utf8": b"\xff\xfe\x00{}\n",
    "not_json": b"not json at all\n",
    "not_object": b"[1, 2, 3]\n",
    "wrong_schema": b'{"schema": "other/9"}\n',
    "torn_line": _META + b'{"seq": 0, "tru',
}

_JSON = ("missing", "not_utf8", "not_json", "not_object")
_JSONL = _JSON + ("torn_line",)

#: (reader, file suffix, the damages it must refuse).
READERS = {
    "read_json": (
        lambda p: read_json(p, schema="repro-x/1"),
        ".json",
        _JSON + ("wrong_schema",),
    ),
    "read_jsonl": (
        lambda p: read_jsonl(p, schema=SERIES_SCHEMA),
        ".jsonl",
        _JSONL + ("wrong_schema",),
    ),
    "read_series_jsonl": (read_series_jsonl, ".jsonl", _JSONL + ("wrong_schema",)),
    "load_trace_events_jsonl": (load_trace_events, ".jsonl", _JSONL),
    "load_trace_events_chrome": (load_trace_events, ".json", _JSON),
}


def _damaged(tmp_path, damage: str, suffix: str) -> str:
    path = tmp_path / f"artifact{suffix}"
    if DAMAGE[damage] is not None:
        path.write_bytes(DAMAGE[damage])
    return str(path)


@pytest.mark.parametrize(
    "reader, damage",
    [(name, damage) for name, (_, _, damages) in READERS.items() for damage in damages],
)
def test_damaged_file_raises_value_error_naming_the_path(tmp_path, reader, damage):
    read, suffix, _ = READERS[reader]
    path = _damaged(tmp_path, damage, suffix)
    with pytest.raises(ValueError, match=re.escape(path)):
        read(path)


@pytest.mark.parametrize("damage", _JSON + ("wrong_schema",))
def test_damaged_snapshot_raises_checkpoint_error(tmp_path, damage):
    with pytest.raises(CheckpointError):
        load_snapshot(_damaged(tmp_path, damage, ".json"))


def test_empty_jsonl_with_a_schema_is_refused(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_jsonl(str(path)) == []
    with pytest.raises(ValueError, match="empty"):
        read_jsonl(str(path), schema=SERIES_SCHEMA)


def test_jsonl_round_trip_and_bytes(tmp_path):
    path = str(tmp_path / "log.jsonl")
    records = [{"schema": "repro-x/1"}, {"b": 1, "a": [2.5, None]}]
    assert atomic_write_jsonl(path, records) == path
    assert open(path, encoding="utf-8").read() == (
        '{"schema": "repro-x/1"}\n{"a": [2.5, null], "b": 1}\n'
    )
    assert read_jsonl(path, schema="repro-x/1") == records
    atomic_write_jsonl(path, records[1:], sort_keys=False)
    assert open(path, encoding="utf-8").read() == '{"b": 1, "a": [2.5, null]}\n'
    atomic_write_jsonl(path, [])
    assert open(path, encoding="utf-8").read() == ""


def test_json_round_trip_and_bytes(tmp_path):
    path = str(tmp_path / "doc.json")
    atomic_write_json(path, {"schema": "repro-x/1", "a": 1})
    assert open(path, encoding="utf-8").read() == (
        '{\n  "a": 1,\n  "schema": "repro-x/1"\n}\n'
    )
    assert read_json(path, schema="repro-x/1") == {"a": 1, "schema": "repro-x/1"}
    atomic_write_text(path, "[]")
    with pytest.raises(ValueError, match="not an object"):
        read_json(path)
