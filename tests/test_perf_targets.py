"""Every name the traced benchmark rebinds still exists.

``perf/trace.py``'s ``Recorder.install`` looks each target up with
``vars(owner)[attr]``: a refactor that renames or drops one breaks only the
traced benchmark run, long after tier-1 passed.  This guard reads ``perf/``
and changes nothing there.
"""

from __future__ import annotations

from perf.trace import TARGETS


def test_every_trace_target_resolves_as_install_looks_it_up():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _span in TARGETS
        if attr not in vars(owner)
    ]
    assert not missing, f"perf/trace.py TARGETS no longer resolve: {missing}"
