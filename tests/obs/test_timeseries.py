"""Telemetry sampler: cadence, ring buffer, null path, JSONL round trip."""

import json

import pytest

from repro.obs.timeseries import (
    NULL_SAMPLER,
    QUARANTINED_KEYS,
    SERIES_SCHEMA,
    NullTimeSeriesSampler,
    SeriesStore,
    TelemetryConfig,
    TimeSeriesSampler,
    read_series_jsonl,
)
from repro.metrics import MetricsCollector
from repro.sim.kernel import Simulator


def _sampler(**kw):
    kw.setdefault("enabled", True)
    return TimeSeriesSampler(TelemetryConfig(**kw))


# ------------------------------------------------------------------- config


def test_config_rejects_bad_interval_and_capacity():
    with pytest.raises(ValueError, match="interval"):
        TelemetryConfig(interval=0.0).validate()
    with pytest.raises(ValueError, match="interval"):
        TelemetryConfig(interval=-1.0).validate()
    with pytest.raises(ValueError, match="capacity"):
        TelemetryConfig(capacity=0).validate()


def test_sampler_validates_config_on_construction():
    with pytest.raises(ValueError):
        TimeSeriesSampler(TelemetryConfig(enabled=True, interval=-5.0))


# -------------------------------------------------------------------- store


def test_series_store_is_a_ring_buffer():
    store = SeriesStore(capacity=3)
    assert store.last is None
    for i in range(5):
        store.append({"seq": i})
    assert len(store) == 3
    assert store.total == 5
    assert store.dropped == 2
    assert [s["seq"] for s in store.samples] == [2, 3, 4]
    assert store.last == {"seq": 4}


def test_series_store_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        SeriesStore(0)


# ------------------------------------------------------------------ cadence


def test_sampling_cadence_is_grid_aligned_and_drains():
    """Samples land at multiples of the interval, then the run drains."""
    sim = Simulator()
    for t in (3.0, 7.0, 12.0):
        sim.schedule_at(t, lambda: None)
    sampler = _sampler(interval=5.0)
    sampler.attach(sim)
    sampler.start()
    sim.run()
    final = sampler.finalize()
    times = [s["sim_time"] for s in sampler.store.samples]
    # opening sample, ticks at 5/10, one trailing tick at 15, closing sample
    assert times == [0.0, 5.0, 10.0, 15.0, 15.0]
    assert [s["final"] for s in sampler.store.samples] == [
        False, False, False, False, True,
    ]
    assert [s["seq"] for s in sampler.store.samples] == [0, 1, 2, 3, 4]
    assert final is sampler.store.last


def test_sampler_never_keeps_the_calendar_alive():
    """With no real work pending, start() takes one sample and stops."""
    sim = Simulator()
    sampler = _sampler(interval=1.0)
    sampler.attach(sim)
    sampler.start()
    assert sim.peek() is None  # nothing armed on an empty calendar
    assert len(sampler.store) == 1


def test_start_requires_attach():
    with pytest.raises(RuntimeError, match="attach"):
        _sampler().start()


def test_probes_and_listeners_fire_per_sample():
    sim = Simulator()
    sampler = _sampler()
    sampler.attach(sim)
    sampler.add_probe("z.second", lambda: 2.0)
    sampler.add_probe("a.first", lambda: 1.0)
    seen = []
    sampler.add_listener(seen.append)
    record = sampler.sample()
    # probes are read in sorted-name order and land under "probes"
    assert record["probes"] == {"a.first": 1.0, "z.second": 2.0}
    assert seen == [record]


# ---------------------------------------------------------------- null path


def test_null_sampler_is_inert():
    assert NULL_SAMPLER.enabled is False
    assert isinstance(NULL_SAMPLER, NullTimeSeriesSampler)
    NULL_SAMPLER.attach(None)
    NULL_SAMPLER.add_probe("x", lambda: 1.0)
    NULL_SAMPLER.add_listener(lambda s: None)
    NULL_SAMPLER.start()
    assert NULL_SAMPLER.sample() == {}
    assert NULL_SAMPLER.finalize() is None
    assert len(NULL_SAMPLER.store) == 0


def test_null_sampler_refuses_to_write():
    with pytest.raises(RuntimeError, match="disabled"):
        NULL_SAMPLER.write_series("/tmp/never-written.jsonl")


# ------------------------------------------------------------------- output


def _run_tiny(sampler, collector=None):
    sim = Simulator()
    sim.schedule_at(4.0, lambda: None)
    sampler.attach(sim, collector=collector)
    sampler.start()
    sim.run()
    sampler.finalize()


def test_write_series_round_trips_and_quarantines_wall(tmp_path):
    sampler = _sampler(interval=2.0)
    _run_tiny(sampler, collector=MetricsCollector())
    assert "phase_times" in sampler.store.last  # solver wall seconds
    path = str(tmp_path / "series.jsonl")
    assert sampler.write_series(path) == path
    meta, samples = read_series_jsonl(path)
    assert meta["schema"] == SERIES_SCHEMA
    assert meta["interval"] == 2.0
    assert meta["samples"] == len(sampler.store) == len(samples)
    assert meta["dropped"] == 0
    for row in samples:
        assert not QUARANTINED_KEYS & row.keys()
    assert samples[-1]["final"] is True


def test_write_series_lines_are_sorted_key_json(tmp_path):
    sampler = _sampler(interval=2.0)
    _run_tiny(sampler)
    path = sampler.write_series(str(tmp_path / "series.jsonl"))
    for line in open(path, encoding="utf-8").read().splitlines():
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_read_series_rejects_empty_and_wrong_schema(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_series_jsonl(str(empty))
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"schema": "other/9"}) + "\n")
    with pytest.raises(ValueError, match="schema"):
        read_series_jsonl(str(bad))


def test_read_series_rejects_non_json_meta_line(tmp_path):
    bad = tmp_path / "garbage.jsonl"
    bad.write_text("not json at all\n")
    with pytest.raises(ValueError, match="line 1 is not JSON"):
        read_series_jsonl(str(bad))


def test_read_series_rejects_non_object_meta_line(tmp_path):
    bad = tmp_path / "list.jsonl"
    bad.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="not an object"):
        read_series_jsonl(str(bad))


def test_read_series_rejects_missing_schema_marker(tmp_path):
    bad = tmp_path / "nomarker.jsonl"
    bad.write_text(json.dumps({"interval": 5.0}) + "\n")
    with pytest.raises(ValueError, match="schema None"):
        read_series_jsonl(str(bad))


def test_read_series_error_names_the_expected_schema(tmp_path):
    bad = tmp_path / "future.jsonl"
    bad.write_text(json.dumps({"schema": "repro-telemetry/99"}) + "\n")
    with pytest.raises(ValueError, match="repro-telemetry/1"):
        read_series_jsonl(str(bad))


def test_read_series_rejects_corrupt_sample_line(tmp_path):
    bad = tmp_path / "torn.jsonl"
    bad.write_text(
        json.dumps({"schema": SERIES_SCHEMA}) + "\n" + '{"seq": 0, "tru'
    )
    with pytest.raises(ValueError, match="line 2 is not JSON"):
        read_series_jsonl(str(bad))
