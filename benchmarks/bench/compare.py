"""Compare two benchmark result files, workload by workload.

``python3 benchmarks/bench/compare.py A.json B.json``

A is the reference (the parent commit), B the candidate.  For every
workload and end-to-end metric it prints both medians and IQRs and a
verdict, using the bounds in ``BENCHMARK.json``:

* ``worse`` / ``better``: B's median moved past the bound (a share of
  A's median) in that direction;
* ``unchanged``: within the bound;
* ``unresolved``: either side's IQR is wider than the bound, so the
  runs cannot tell, unless every sample of B beats every sample of A.

``error_rate`` has no bound: any increase is ``worse``.  A changed
``physics_digest`` is reported as ``mismatch`` (a speed-only change must
leave the simulated physics byte-identical).  Exits 1 on any ``worse``
or ``mismatch`` row, and 2 (comparing nothing) when the two files ran
different seeds, sizes or GPU/solver backends.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from run import load_spec


def _spread(summary: dict) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Verdict of candidate summary ``b`` against reference ``a``."""
    sign = 1.0 if better == "higher" else -1.0
    worse_by = sign * (a["median"] - b["median"]) / a["median"]
    sa, sb = a.get("samples"), b.get("samples")
    dominates = bool(sa and sb) and (
        min(sb) > max(sa) if better == "higher" else max(sb) < min(sa)
    )
    if max(_spread(a), _spread(b)) > bound and not dominates:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def refusal(a: dict, b: dict) -> Optional[str]:
    """Why the two files cannot be compared, or None."""
    for key in ("seed", "scale"):
        if a.get(key) != b.get(key):
            return f"{key} differs ({a.get(key)} vs {b.get(key)})"
    ba = a["fingerprint"]["backends"]
    bb = b["fingerprint"]["backends"]
    if ba != bb:
        return f"backends differ ({ba} vs {bb})"
    return None


def compare(a: dict, b: dict, spec: dict) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric, plus digest rows."""
    rows: List[Dict[str, object]] = []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            rows.append({"workload": workload, "metric": "-",
                         "verdict": "missing"})
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            ma, mb = wa["metrics"][name], wb["metrics"][name]
            rows.append({
                "workload": workload, "metric": name,
                "a": ma, "b": mb,
                "verdict": verdict(ma, mb, metric["better"], metric["bound"]),
            })
        ea = wa["metrics"]["error_rate"]["value"]
        eb = wb["metrics"]["error_rate"]["value"]
        rows.append({
            "workload": workload, "metric": "error_rate",
            "a": {"median": ea}, "b": {"median": eb},
            "verdict": ("worse" if eb > ea
                        else "better" if eb < ea else "unchanged"),
        })
        same = wa["physics_digest"] == wb["physics_digest"]
        rows.append({
            "workload": workload, "metric": "physics_digest",
            "verdict": "identical" if same else "mismatch",
        })
    return rows


def _cell(summary: Optional[dict]) -> str:
    if not summary:
        return ""
    text = f"{summary['median']:.6g}"
    if "q1" in summary:
        text += f" [{summary['q1']:.4g}-{summary['q3']:.4g}]"
    return text


def render(rows: List[Dict[str, object]]) -> str:
    head = f"{'workload':<18} {'metric':<18} {'A median [q1-q3]':<34} " \
           f"{'B median [q1-q3]':<34} verdict"
    lines = [head, "-" * len(head)]
    for row in rows:
        lines.append(
            f"{row['workload']:<18} {row['metric']:<18} "
            f"{_cell(row.get('a')):<34} {_cell(row.get('b')):<34} "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    why = refusal(a, b)
    if why is not None:
        print(f"refusing to compare: {why}", file=sys.stderr)
        return 2
    rows = compare(a, b, load_spec())
    print(f"A: rev {a['fingerprint']['rev']}  B: rev {b['fingerprint']['rev']}")
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("worse", "mismatch", "missing")]
    unresolved = sum(1 for r in rows if r["verdict"] == "unresolved")
    if unresolved:
        print(f"{unresolved} unresolved row(s): spread wider than the bound; "
              "run more rounds before claiming no regression")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
