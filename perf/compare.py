"""Compare two result files written by ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json

One row per (workload, metric): both medians, the ratio B/A with its base,
and for an end-to-end metric a verdict from the bound in ``BENCHMARK.json``:

``ok``          B is no worse than A by more than the bound;
``worse``       it is;
``unresolved``  one side's own spread (quartile distance over median, from
                ``--repeat``) exceeds the bound, so the bound cannot be read.

Per-layer metrics (two ``--trace 1`` files) have no bound and get no verdict.
Also compared: ``sim_digest`` per workload, and the share of failed ops.
Exits 1 on a ``worse``, a digest mismatch or a larger failed share.
"""

import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(metric):
    """Quartile distance as a share of the median (0 for a single run)."""
    return (metric["q3"] - metric["q1"]) / metric["median"] if metric["median"] else 0.0


def verdict(a, b, spec):
    """How B's median stands against A's under the metric's bound."""
    bound = spec.get("bound")
    if bound is None:
        return "-"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    worsening = change if spec["better"] == "lower" else -change
    return "worse" if worsening > bound else "ok"


def compare(a, b, specs):
    """Rows of the comparison and whether any of them fails it."""
    rows, failed = [], False
    if (a["seed"], a["seconds"], a["trace"]) != (b["seed"], b["seconds"], b["trace"]):
        rows.append("! seed, scale or trace mode differ: digests are not comparable")
    for workload, ra in a["workloads"].items():
        rb = b["workloads"].get(workload)
        if rb is None:
            continue
        rows.append(workload)
        for name, ma in ra["metrics"].items():
            mb = rb["metrics"][name]
            v = verdict(ma, mb, specs[name])
            failed |= v == "worse"
            ratio = mb["median"] / ma["median"] if ma["median"] else float("nan")
            rows.append(
                f"  {name:<42} {ma['median']:>12.6g} -> {mb['median']:>12.6g} "
                f"{ma['unit']:<6} x{ratio:.3f} of {ma['median']:.6g}  {v}"
            )
        same = ra["sim_digest"] == rb["sim_digest"]
        failed |= not same
        rows.append(
            f"  sim_digest {ra['sim_digest']} -> {rb['sim_digest']}  "
            + ("same" if same else "MISMATCH")
        )
        share_a, share_b = ra["failed"] / ra["ops"], rb["failed"] / rb["ops"]
        failed |= share_b > share_a
        rows.append(
            f"  failed ops {ra['failed']}/{ra['ops']} -> {rb['failed']}/{rb['ops']}  "
            + ("MORE FAIL" if share_b > share_a else "ok")
        )
    return rows, failed


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    documents = []
    for path in argv:
        with open(path) as f:
            documents.append(json.load(f))
    rows, failed = compare(*documents, specs)
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
