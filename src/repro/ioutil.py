"""The artifact codec: crash-safe writes and one read error contract.

Every artifact the toolkit persists -- traces, HTML reports, run
captures, sweep cells, checkpoints -- goes through the same atomic
``tmp + os.replace`` pattern: the payload is written to a sibling
temporary file and renamed over the destination in one step.  A process
killed mid-write leaves either the old complete file or no file, never a
truncated one; ``os.replace`` is atomic on POSIX and Windows for paths on
the same filesystem (the temporary always lives next to the target).

The temporary name embeds the pid so concurrent writers (e.g. sweep pool
workers persisting into a shared directory) never collide on it.

Every ``repro-*/N`` document is read back through :func:`read_json` or
:func:`read_jsonl`.  A file that is missing, not UTF-8, not JSON, not an
object (for JSONL: any line), or carries the wrong schema raises
``ValueError`` naming the path, so each command maps one exception to its
"unreadable input" exit.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List, Optional


def atomic_write_text(path: str, text: str) -> str:
    """Write ``text`` to ``path`` atomically as UTF-8; returns ``path``."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        # A failure between open and replace must not leave the temp behind.
        if os.path.exists(tmp):
            try:
                os.remove(tmp)
            except OSError:
                pass
    return path


def atomic_write_json(path: str, payload: Any) -> str:
    """Write ``payload`` atomically as indented, key-sorted JSON plus a newline."""
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def atomic_write_jsonl(
    path: str, records: Iterable[Any], sort_keys: bool = True
) -> str:
    """Write one compact JSON line per record atomically; returns ``path``."""
    return atomic_write_text(
        path, "".join(json.dumps(r, sort_keys=sort_keys) + "\n" for r in records)
    )


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _parse_object(text: str, where: str, schema: Optional[str]) -> Dict[str, Any]:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where} is not JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{where} holds a JSON {type(value).__name__}, not an object")
    if schema is not None and value.get("schema") != schema:
        raise ValueError(
            f"{where} has schema {value.get('schema')!r}, expected {schema!r}"
        )
    return value


def read_json(path: str, schema: Optional[str] = None) -> Dict[str, Any]:
    """The JSON object stored at ``path``, checked against ``schema``."""
    return _parse_object(_read_text(path), path, schema)


def read_jsonl(path: str, schema: Optional[str] = None) -> List[Dict[str, Any]]:
    """The objects of a JSONL file, one per non-blank line.

    With ``schema``, the first line must be a meta object carrying it.
    """
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(_read_text(path).splitlines(), 1):
        if line.strip():
            where = f"{path} line {number}"
            check = schema if not records else None
            records.append(_parse_object(line, where, check))
    if schema is not None and not records:
        raise ValueError(f"{path} is empty, expected a {schema!r} meta line")
    return records
