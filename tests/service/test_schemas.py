"""Edge validation and JSON round-tripping of the service payloads."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.schemas import (
    SERVICE_SCHEMA,
    JobSpec,
    JobStatus,
    SlaQuote,
    ValidationError,
    verdict_digest,
)
from repro.workload.entities import TaskKind


def spec(**overrides) -> JobSpec:
    base = dict(
        job_id="j1",
        map_durations=(5, 7),
        reduce_durations=(3,),
        earliest_start=0,
        deadline=60,
    )
    base.update(overrides)
    return JobSpec(**base)


class TestJobSpecValidation:
    def test_valid_spec_passes(self):
        spec().validate()

    def test_empty_job_id_rejected(self):
        with pytest.raises(ValidationError, match="job_id"):
            spec(job_id="").validate()

    def test_no_tasks_rejected(self):
        with pytest.raises(ValidationError, match="no tasks"):
            spec(map_durations=(), reduce_durations=()).validate()

    @pytest.mark.parametrize("bad", [0, -3])
    def test_nonpositive_duration_rejected(self, bad):
        with pytest.raises(ValidationError, match="positive"):
            spec(map_durations=(5, bad)).validate()

    def test_negative_earliest_start_rejected(self):
        with pytest.raises(ValidationError, match="earliest_start"):
            spec(earliest_start=-1).validate()

    def test_deadline_must_exceed_earliest_start(self):
        with pytest.raises(ValidationError, match="deadline"):
            spec(earliest_start=30, deadline=30).validate()

    def test_map_only_job_is_valid(self):
        spec(reduce_durations=()).validate()


class TestJobSpecConversion:
    def test_to_job_anchors_at_arrival(self):
        job = spec(earliest_start=10, deadline=100).to_job(7, arrival=50)
        assert job.id == 7
        assert job.arrival_time == 50
        assert job.earliest_start == 60
        assert job.deadline == 150
        assert [t.duration for t in job.map_tasks] == [5, 7]
        assert [t.duration for t in job.reduce_tasks] == [3]
        assert all(t.kind is TaskKind.MAP for t in job.map_tasks)
        assert all(t.kind is TaskKind.REDUCE for t in job.reduce_tasks)
        assert job.map_tasks[0].id == "j1-m0"

    def test_round_trip(self):
        original = spec()
        restored = JobSpec.from_dict(original.as_dict())
        assert restored == original

    def test_from_dict_rejects_unknown_schema(self):
        data = spec().as_dict()
        data["schema"] = "repro-service/99"
        with pytest.raises(ValidationError, match="schema"):
            JobSpec.from_dict(data)

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValidationError):
            JobSpec.from_dict({"schema": SERVICE_SCHEMA})

    def test_from_dict_validates(self):
        data = spec(deadline=0).as_dict()
        with pytest.raises(ValidationError, match="deadline"):
            JobSpec.from_dict(data)

    def test_from_dict_rejects_non_object_payload(self):
        # Used to raise AttributeError ('list' object has no attribute 'get').
        with pytest.raises(ValidationError, match="not an object"):
            JobSpec.from_dict([1, 2])

    @pytest.mark.parametrize(
        "text",
        [
            '{"job_id": "a", "map_durations": [Infinity], "deadline": 5}',
            '{"job_id": "a", "map_durations": [1], "deadline": Infinity}',
            '{"job_id": "a", "map_durations": [NaN], "deadline": 5}',
        ],
    )
    def test_from_dict_rejects_non_finite_numbers(self, text):
        # json.loads accepts these; int(inf) used to escape as OverflowError.
        with pytest.raises(ValidationError):
            JobSpec.from_dict(json.loads(text))

    @pytest.mark.parametrize("durations", ["12", b"12"], ids=["str", "bytes"])
    def test_from_dict_rejects_string_durations(self, durations):
        # "12" used to be accepted as two tasks of 1 s and 2 s.
        data = {"job_id": "a", "map_durations": durations, "deadline": 50}
        with pytest.raises(ValidationError, match="must be a list"):
            JobSpec.from_dict(data)

    def test_from_dict_rejects_bool_durations(self):
        # [true, 2] used to be accepted as durations (1, 2).
        data = {"job_id": "a", "map_durations": [True, 2], "deadline": 5}
        with pytest.raises(ValidationError, match="whole number"):
            JobSpec.from_dict(data)

    def test_from_dict_rejects_fractional_durations(self):
        # 2.9 used to be truncated to 2.
        data = {"job_id": "a", "map_durations": [1, 2.9], "deadline": 5}
        with pytest.raises(ValidationError, match="whole number"):
            JobSpec.from_dict(data)

    def test_from_dict_rejects_fractional_deadline(self):
        # 5.99 used to be truncated to 5.
        data = {"job_id": "a", "map_durations": [1], "deadline": 5.99}
        with pytest.raises(ValidationError, match="whole number"):
            JobSpec.from_dict(data)

    def test_from_dict_rejects_fractional_earliest_start(self):
        data = {"job_id": "a", "map_durations": [1], "earliest_start": 0.5,
                "deadline": 5}
        with pytest.raises(ValidationError, match="whole number"):
            JobSpec.from_dict(data)

    @pytest.mark.parametrize("job_id", [["x"], 7], ids=["list", "int"])
    def test_from_dict_rejects_non_string_job_id(self, job_id):
        # ["x"] and 7 used to become the ids "['x']" and "7".
        data = {"job_id": job_id, "map_durations": [1], "deadline": 5}
        with pytest.raises(ValidationError, match="job_id"):
            JobSpec.from_dict(data)

    def test_from_dict_accepts_integral_floats(self):
        data = {"job_id": "a", "map_durations": [2.0], "deadline": 5.0}
        parsed = JobSpec.from_dict(data)
        assert parsed == JobSpec("a", (2,), deadline=5)
        assert type(parsed.deadline) is int


_SPEC_KEYS = (
    "schema",
    "job_id",
    "map_durations",
    "reduce_durations",
    "earliest_start",
    "deadline",
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
_numbers = st.integers(-5, 100) | st.floats(-5, 100) | st.floats()
_payloads = (
    _json_values
    | st.dictionaries(st.sampled_from(_SPEC_KEYS), _json_values)
    | st.fixed_dictionaries(
        {
            "job_id": st.text(max_size=4),
            "map_durations": st.lists(_numbers, max_size=3),
            "deadline": _numbers,
        },
        optional={
            "reduce_durations": st.lists(_numbers, max_size=3),
            "earliest_start": _numbers,
        },
    )
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_from_dict_on_any_json_value_returns_valid_spec_or_rejects(data):
    """No decoded JSON value makes ``from_dict`` raise anything else, and an
    accepted spec holds exactly the values it was given: nothing truncated."""
    try:
        parsed = JobSpec.from_dict(data)
    except ValidationError:
        return
    parsed.validate()
    written = parsed.as_dict()
    for key in _SPEC_KEYS[1:]:
        if key in data:
            assert _same(data[key], written[key]), key


def _same(given, kept) -> bool:
    """Equal, and of the same JSON type -- except that an integral float
    may come back as the int it equals."""
    if isinstance(given, list):
        return (
            isinstance(kept, list)
            and len(given) == len(kept)
            and all(map(_same, given, kept))
        )
    if isinstance(given, float):
        return type(kept) is int and given == kept
    return type(given) is type(kept) and given == kept


def quote(**overrides) -> SlaQuote:
    base = dict(
        job_id="j1",
        admitted=True,
        reason="deadline_met",
        predicted_completion=40,
        deadline=60,
        rung="cp_full",
        solve_ms=1.25,
        arrival=10,
    )
    base.update(overrides)
    return SlaQuote(**base)


class TestSlaQuote:
    def test_round_trip(self):
        restored = SlaQuote.from_dict(quote().as_dict())
        assert restored == quote()

    def test_round_trip_with_nones(self):
        q = quote(admitted=False, reason="overload_shed",
                  predicted_completion=None, deadline=None, rung="none")
        assert SlaQuote.from_dict(q.as_dict()) == q

    def test_verdict_key_excludes_wall_time(self):
        assert quote(solve_ms=1.0).verdict_key() == quote(solve_ms=99.0).verdict_key()

    def test_verdict_key_sees_decisions(self):
        assert quote().verdict_key() != quote(admitted=False).verdict_key()
        assert quote().verdict_key() != quote(predicted_completion=41).verdict_key()
        assert quote().verdict_key() != quote(rung="edf").verdict_key()


class TestVerdictDigest:
    def test_order_insensitive(self):
        a, b = quote(job_id="a"), quote(job_id="b")
        assert verdict_digest([a, b]) == verdict_digest([b, a])

    def test_wall_time_invariant(self):
        assert verdict_digest([quote(solve_ms=1.0)]) == verdict_digest(
            [quote(solve_ms=50.0)]
        )

    def test_decision_sensitive(self):
        assert verdict_digest([quote()]) != verdict_digest(
            [quote(admitted=False, reason="deadline_missed")]
        )


class TestJobStatus:
    def test_round_trip(self):
        status = JobStatus("j1", "admitted", quote(), planned=[("j1-m0", 10, 15)])
        restored = JobStatus.from_dict(status.as_dict())
        assert restored.job_id == "j1"
        assert restored.state == "admitted"
        assert restored.quote == quote()
        assert restored.planned == [("j1-m0", 10, 15)]

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="state"):
            JobStatus("j1", "limbo")
