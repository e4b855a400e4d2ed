"""Every knob and every name has a caller: nothing exists only for its tests.

For each ``@dataclass`` under ``src/repro`` whose name ends in ``Config`` or
``Params``, every field with a default must be set by keyword (``name=...``)
somewhere in ``src/``, ``perf/`` or ``examples/`` outside the module that
defines it -- or sit on :data:`ALLOWLIST` with the reason it stays.  An
option nothing sets is a second code path that tests and pins must cover
for no workload; delete it or give it a caller.

A keyword sets the class a call builds (``Cls(...)``), the class a
``replace`` is known to act on, or -- for any other call, which may route
keywords on -- every class with a field of that name.  A keyword that only
hands on a value the option already holds sets nothing.

The second rule, below, asks the same of every function, class, method and
property (:func:`test_every_definition_has_a_caller_or_a_reason`).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "perf", "examples")

#: ``Class.field`` -> why the field stays without a setter outside its module.
ALLOWLIST = {
    "SyntheticWorkloadParams.reduce_extra_range": "Table 3 workload parameter",
    "FacebookWorkloadParams.exact_mix": "Table 4 workload parameter",
    "FacebookWorkloadParams.max_task_seconds": "Table 4 workload parameter",
    "FacebookWorkloadParams.first_job_id": "id offset shared by the generators",
    "SyntheticWorkloadParams.first_job_id": "id offset shared by the generators",
    "WorkflowWorkloadParams.reduce_stage_probability": "Table 3-style DAG workload",
    "WorkflowWorkloadParams.transfer_delay_range": "Table 3-style DAG workload",
    "LnsParams.initial_neighbourhood": "LNS schedule the stop rule derives from",
    "LnsParams.max_neighbourhood": "LNS schedule the stop rule derives from",
    "LnsParams.stall_before_grow": "LNS schedule the stop rule derives from",
    "SolverParams.lns": "LNS schedule the stop rule derives from",
    "MrcpRmConfig.max_task_retries": "fault-recovery policy",
    # Set by the ``ablation-mode`` figure from a loop variable, ``mode=mode``,
    # which reads like a forwarded parameter.
    "MrcpRmConfig.mode": "Section V.D ablation: combined vs joint model",
    "MrcpRmConfig.retry_backoff": "fault-recovery policy",
    "SolverParams.jump_branching": "exhaustive-branching reference",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def config_classes():
    """Class name -> (defining module, {field: (annotation, has default)})."""
    out = {}
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Config", "Params"))
                and _is_dataclass(node)
            ):
                out[node.name] = (path, _fields(node))
    return out


def _fields(node):
    """Field -> (annotation text, whether it has a default)."""
    return {
        stmt.target.id: (ast.unparse(stmt.annotation), stmt.value is not None)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _target(call, classes, holders):
    """The config class a call sets fields of, or None when unknown.

    ``Cls(...)`` sets ``Cls``; ``replace(x.obs, ...)`` or ``replace(obs, ...)``
    sets the class a config field of that name holds.  Any other call -- a
    builder that routes keywords on -- may set any class.
    """
    callee = _name(call.func)
    if callee in classes:
        return callee
    if callee == "replace" and call.args:
        return holders.get(_name(call.args[0]))
    return None


def _passes_through(call, kw):
    """``name=name`` forwards a parameter, ``name=f(self.name)`` an
    attribute, and ``replace(x, name=f(x.name))`` re-wraps the value already
    there: none of them gives the option a value of its own."""
    if isinstance(kw.value, ast.Name) and kw.value.id == kw.arg:
        return True
    held = [f"self.{kw.arg}"]
    if _name(call.func) == "replace" and call.args:
        held.append(f"{ast.unparse(call.args[0])}.{kw.arg}")
    value = ast.unparse(kw.value)
    return any(re.search(rf"(?<![\w.]){re.escape(h)}\b", value) for h in held)


def unset_fields():
    """``Class.field`` of every defaulted option nothing outside its module sets."""
    classes = config_classes()
    holders = {  # field name -> the config class such a field holds
        field: cls
        for _, fields in classes.values()
        for field, (annotation, _) in fields.items()
        for cls in classes
        if re.search(rf"\b{cls}\b", annotation)
    }
    set_in = {}  # (class, field) -> files that set it
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(call, ast.Call):
                    continue
                target = _target(call, classes, holders)
                for kw in call.keywords:
                    if kw.arg is None or _passes_through(call, kw):
                        continue
                    for cls, (_, fields) in classes.items():
                        if kw.arg in fields and target in (None, cls):
                            set_in.setdefault((cls, kw.arg), set()).add(path)
    return sorted(
        f"{cls}.{field}"
        for cls, (module, fields) in classes.items()
        for field, (_, defaulted) in fields.items()
        if defaulted and not set_in.get((cls, field), set()) - {module}
    )


def test_every_defaulted_option_has_a_caller_or_a_reason():
    unset = set(unset_fields())
    assert sorted(unset - set(ALLOWLIST)) == []
    # The allowlist stays exact: an entry whose field gained a caller or
    # was deleted goes too.
    assert sorted(set(ALLOWLIST) - unset) == []


def test_the_scan_sees_the_config_classes():
    classes = config_classes()
    assert {"MrcpRmConfig", "SolverParams", "ObsConfig", "RunConfig"} <= set(classes)
    assert {"CheckpointConfig", "LadderConfig", "TelemetryConfig"} <= set(classes)
    assert classes["RunConfig"][1]["obs"] == ("ObsConfig", True)


# ---------------------------------------------------------------- callers
#
# The same rule for code: every function, class, method and property defined
# under ``src/repro`` is referenced from ``src/``, ``perf/`` or ``examples/``
# outside its own body -- or sits on :data:`UNCALLED` with the reason it stays.
# A reference is a ``Name``, an attribute, or an identifier-shaped string
# constant (dispatch tables such as ``perf/trace.py``'s ``TARGETS`` name
# methods by string); ``__all__`` entries and imports are not.  The rule
# matches names, not objects, so any same-named reference keeps a definition
# alive: it is a floor, not a proof.

#: Qualified name (module path below ``repro``) -> why it stays uncalled.
UNCALLED = {
    "cp.brute.brute_force_min_late": "brute-force oracle the solver is checked against",
    "cp.profile.TimetableProfile.height_at": "instant-by-instant profile oracle",
    "workload.workflows.from_mapreduce": "MapReduce-to-workflow equivalence oracle",
    "service.server.SchedulerService.bound_port": "the port serve(port=0) bound",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


def definitions():
    """``(qualified name, name, path, first line, last line)`` of every def."""
    out = []
    for path in sorted(SOURCE.rglob("*.py")):
        module = ".".join(path.relative_to(SOURCE).with_suffix("").parts)
        stack = [(module, ast.parse(path.read_text(), str(path)).body)]
        while stack:
            prefix, body = stack.pop()
            for node in body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                qualified = f"{prefix}.{node.name}"
                if isinstance(node, ast.ClassDef):
                    stack.append((qualified, node.body))
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    out.append(
                        (qualified, node.name, path, node.lineno, node.end_lineno)
                    )
    return out


def references():
    """Name -> ``[(path, line)]`` of every reference in the caller dirs."""
    out = {}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            skip = set()  # ``__all__`` entries; imports hold no Name nodes
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = getattr(node, "targets", [getattr(node, "target", None)])
                    if any(_name(t) == "__all__" for t in targets):
                        skip.update(ast.walk(node))
            for node in ast.walk(tree):
                if node in skip:
                    continue
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if not _IDENTIFIER.match(node.value):
                        continue
                    name = node.value
                else:
                    continue
                out.setdefault(name, []).append((path, node.lineno))
    return out


def uncalled():
    """Qualified names of every definition nothing outside its body reaches."""
    refs = references()
    return sorted(
        qualified
        for qualified, name, path, first, last in definitions()
        if not any(
            p != path or not first <= line <= last for p, line in refs.get(name, ())
        )
    )


def test_every_definition_has_a_caller_or_a_reason():
    dead = set(uncalled())
    assert sorted(dead - set(UNCALLED)) == []
    # Exact like ALLOWLIST: an entry that gained a caller or was deleted goes.
    assert sorted(set(UNCALLED) - dead) == []


def test_the_caller_scan_sees_methods_and_not_reexports():
    assert {"sim.kernel.Simulator.run", "sim.kernel.Simulator.pending"} <= {
        qualified for qualified, *_ in definitions()
    }
    # sim/__init__.py imports mean_ci and lists it in __all__: neither is a
    # reference.
    package = SOURCE / "sim" / "__init__.py"
    assert all(path != package for path, _ in references()["mean_ci"])
