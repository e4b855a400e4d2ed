"""DAG workflow entities and generator (the Section VII generalisation)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workload.entities import Task, TaskKind
from repro.workload.workflows import (
    Stage,
    WorkflowJob,
    WorkflowWorkloadParams,
    from_mapreduce,
    generate_workflow_workload,
    validate_workflows,
)

from tests.conftest import make_job


def _task(tid, job_id=0, kind=TaskKind.MAP, duration=5):
    return Task(tid, job_id, kind, duration)


def _diamond(job_id=0, deadline=1000):
    """A -> {B, C} -> D."""
    return WorkflowJob(
        id=job_id,
        arrival_time=0,
        earliest_start=0,
        deadline=deadline,
        stages=[
            Stage("A", [_task(f"w{job_id}_a0", job_id)]),
            Stage("B", [_task(f"w{job_id}_b0", job_id), _task(f"w{job_id}_b1", job_id)]),
            Stage("C", [_task(f"w{job_id}_c0", job_id, TaskKind.REDUCE)]),
            Stage("D", [_task(f"w{job_id}_d0", job_id)]),
        ],
        edges=[("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
    )


def test_valid_diamond():
    wf = _diamond()
    assert len(wf.tasks) == 5
    assert wf.terminal_stage_names() == ["D"]
    stages, preds = wf.topological_stages()
    names = [s.name for s in stages]
    assert names[0] == "A" and names[-1] == "D"
    d_idx = names.index("D")
    assert sorted(names[p] for p in preds[d_idx]) == ["B", "C"]


def test_cycle_rejected():
    with pytest.raises(ValueError, match="cycle"):
        WorkflowJob(
            id=1, arrival_time=0, earliest_start=0, deadline=10,
            stages=[Stage("A", [_task("a", 1)]), Stage("B", [_task("b", 1)])],
            edges=[("A", "B"), ("B", "A")],
        )


def test_three_cycle_rejected_naming_the_stuck_stages():
    stages = [Stage(n, [_task(n.lower(), 1)]) for n in "RABCD"]
    with pytest.raises(ValueError, match="precedence cycle") as exc:
        WorkflowJob(
            id=1, arrival_time=0, earliest_start=0, deadline=10, stages=stages,
            edges=[("R", "A"), ("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")],
        )
    # R is a clean root; the cycle and what hangs off it never reach zero.
    assert "['A', 'B', 'C', 'D']" in str(exc.value)


@st.composite
def layered_dag_edges(draw):
    """(stage count, edges) with every edge low -> high index, in shuffled
    order and with repeats, so insertion order and duplicates both matter."""
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if not pairs:
        return n, []
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n))
    return n, [(f"s{a}", f"s{b}") for a, b in edges]


@given(layered_dag_edges(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_topological_order_equals_networkx(dag, rnd):
    nx = pytest.importorskip("networkx")
    n, edges = dag
    names = [f"s{i}" for i in range(n)]
    rnd.shuffle(names)  # stage order need not be a topological one
    wf = WorkflowJob(
        id=0, arrival_time=0, earliest_start=0, deadline=10,
        stages=[Stage(name, [_task(f"t{name}")]) for name in names],
        edges=edges,
    )
    g = nx.DiGraph()
    g.add_nodes_from(names)
    g.add_edges_from(edges)
    order = [s.name for s in wf.topological_stages()[0]]
    assert order == list(nx.topological_sort(g))
    assert wf.terminal_stage_names() == [
        name for name in names if g.out_degree(name) == 0
    ]


def test_unknown_stage_edge_rejected():
    with pytest.raises(ValueError, match="unknown stage"):
        WorkflowJob(
            id=1, arrival_time=0, earliest_start=0, deadline=10,
            stages=[Stage("A", [_task("a", 1)])],
            edges=[("A", "Z")],
        )


def test_self_edge_rejected():
    with pytest.raises(ValueError, match="self-edge"):
        WorkflowJob(
            id=1, arrival_time=0, earliest_start=0, deadline=10,
            stages=[Stage("A", [_task("a", 1)])],
            edges=[("A", "A")],
        )


def test_empty_stage_rejected():
    with pytest.raises(ValueError, match="no tasks"):
        WorkflowJob(
            id=1, arrival_time=0, earliest_start=0, deadline=10,
            stages=[Stage("A", [])], edges=[],
        )


def test_duplicate_stage_names_rejected():
    with pytest.raises(ValueError, match="duplicate stage"):
        WorkflowJob(
            id=1, arrival_time=0, earliest_start=0, deadline=10,
            stages=[Stage("A", [_task("a", 1)]), Stage("A", [_task("b", 1)])],
            edges=[],
        )


def test_job_compatible_interface():
    wf = _diamond()
    assert not wf.is_completed
    assert len(wf.pending_tasks) == 5
    assert wf.total_work == 25
    assert wf.laxity() == 1000 - 0 - 25
    assert [t.id for t in wf.last_stage_tasks] == ["w0_d0"]
    for t in wf.tasks:
        t.is_completed = True
    assert wf.is_completed
    wf.reset_runtime_state()
    assert not wf.is_completed


def test_with_earliest_start_view():
    wf = _diamond()
    view = wf.with_earliest_start(50)
    assert view.earliest_start == 50
    assert wf.earliest_start == 0
    assert view.stages is wf.stages
    assert wf.with_earliest_start(0) is wf


def test_critical_path_time_chain():
    # A(4) -> B(6) with ample slots: TE = 10
    wf = WorkflowJob(
        id=2, arrival_time=0, earliest_start=0, deadline=100,
        stages=[
            Stage("A", [_task("a", 2, duration=4)]),
            Stage("B", [_task("b", 2, duration=6)]),
        ],
        edges=[("A", "B")],
    )
    assert wf.critical_path_time(4, 4) == 10


def test_critical_path_takes_longest_branch():
    wf = _diamond()
    # A(5) -> max(B: two 5s on many slots = 5, C: 5) -> D(5): 15
    assert wf.critical_path_time(10, 10) == 15
    # with one map slot, B serialises: A(5) + B(10) + D(5) = 20
    assert wf.critical_path_time(1, 1) == 20


def test_from_mapreduce_round_trip():
    job = make_job(3, (5, 7), (4,), deadline=99)
    wf = from_mapreduce(job)
    assert [s.name for s in wf.stages] == ["map", "reduce"]
    assert wf.edges == [("map", "reduce")]
    assert wf.deadline == 99
    assert len(wf.tasks) == 3
    map_only = from_mapreduce(make_job(4, (5,)))
    assert [s.name for s in map_only.stages] == ["map"]
    assert map_only.edges == []


def test_validate_workflows_catches_problems():
    good = _diamond(0)
    assert validate_workflows([good]) == []
    dup = _diamond(0)
    assert any("duplicate" in p for p in validate_workflows([good, dup]))
    bad_sla = _diamond(1)
    bad_sla.earliest_start = -5
    bad_sla.arrival_time = 0
    assert any("EST before arrival" in p for p in validate_workflows([bad_sla]))


def test_generator_produces_valid_workflows():
    params = WorkflowWorkloadParams(num_jobs=15, stages_range=(2, 5))
    wfs = generate_workflow_workload(params, seed=5)
    assert len(wfs) == 15
    assert validate_workflows(wfs) == []
    for wf in wfs:
        # spine guarantees weak connectivity of consecutive stages
        assert len(wf.stages) >= 2
        te = wf.critical_path_time(
            params.total_map_slots, params.total_reduce_slots
        )
        assert wf.deadline - wf.arrival_time >= te


def test_generator_deterministic():
    params = WorkflowWorkloadParams(num_jobs=6)
    a = generate_workflow_workload(params, seed=9)
    b = generate_workflow_workload(params, seed=9)
    assert [w.deadline for w in a] == [w.deadline for w in b]
    assert [w.edges for w in a] == [w.edges for w in b]


def test_generator_extra_edges_make_dags_not_chains():
    params = WorkflowWorkloadParams(
        num_jobs=20, stages_range=(4, 6), extra_edge_probability=0.8
    )
    wfs = generate_workflow_workload(params, seed=11)
    assert any(len(w.edges) > len(w.stages) - 1 for w in wfs)


def test_generator_param_validation():
    with pytest.raises(ValueError):
        generate_workflow_workload(WorkflowWorkloadParams(num_jobs=0))
    with pytest.raises(ValueError):
        generate_workflow_workload(WorkflowWorkloadParams(stages_range=(0, 2)))
    with pytest.raises(ValueError):
        generate_workflow_workload(
            WorkflowWorkloadParams(extra_edge_probability=2.0)
        )
