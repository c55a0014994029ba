"""Compare mode: diff two sets of benchmark records.

Each file holds records appended by ``run.py --out`` (one JSON object
per line, any mix of workloads, seeds and trace modes).  Records are
grouped by workload and trace mode; a metric's value per group is the
median over its records.  Every ratio is printed with both bases.  An
end-to-end metric that moves in its worse direction by more than the
bound in ``BENCHMARK.json`` is flagged, as is any per-layer metric that
moves by more than ``LAYER_FLAG`` either way.  The exit status is 1
when anything is flagged, so scripts can gate on it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

__all__ = ["compare_files", "compare_records", "LAYER_FLAG"]

#: Relative per-layer move worth a flag (layers have no bound of their own).
LAYER_FLAG = 0.10

Group = Dict[Tuple[str, int], Dict[str, List[float]]]


def _load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _group(records: List[Dict[str, Any]]) -> Group:
    groups: Group = {}
    for record in records:
        metrics = groups.setdefault((record["workload"], record["trace"]), {})
        for name, metric in record["metrics"].items():
            if name not in record.get("unavailable", {}):
                metrics.setdefault(name, []).append(metric["value"])
    return groups


def compare_records(
    base: List[Dict[str, Any]], new: List[Dict[str, Any]], spec: Dict[str, Any]
) -> Tuple[List[str], int]:
    """The report lines and the number of flagged moves."""
    end_to_end = {metric["name"]: metric for metric in spec["end_to_end"]}
    base_groups, new_groups = _group(base), _group(new)
    lines: List[str] = []
    flagged = 0
    for key in sorted(set(base_groups) | set(new_groups)):
        workload, traced = key
        lines.append(f"== {workload} ({'per-layer' if traced else 'end-to-end'})")
        if key not in base_groups or key not in new_groups:
            lines.append("   only in one set; nothing to compare")
            continue
        old_metrics, new_metrics = base_groups[key], new_groups[key]
        for name in sorted(set(old_metrics) & set(new_metrics)):
            old = statistics.median(old_metrics[name])
            cur = statistics.median(new_metrics[name])
            prefix = (
                f"   {name}: {old:.6g} -> {cur:.6g} "
                f"(n={len(old_metrics[name])}/{len(new_metrics[name])})"
            )
            if old == 0:
                lines.append(f"{prefix} ratio n/a (base 0)")
                continue
            ratio = cur / old
            flag = ""
            if name in end_to_end:
                spec_metric = end_to_end[name]
                worse = ratio - 1 if spec_metric["better"] == "lower" else 1 - ratio
                if worse > spec_metric["bound"]:
                    flag = f"  FLAG worse than bound {spec_metric['bound']}"
            elif abs(ratio - 1) > LAYER_FLAG:
                flag = f"  FLAG moved more than {LAYER_FLAG:.0%}"
            flagged += bool(flag)
            lines.append(f"{prefix} ratio {ratio:.4f}{flag}")
    return lines, flagged


def compare_files(base_path: str, new_path: str, spec_path: Path) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    lines, flagged = compare_records(_load(base_path), _load(new_path), spec)
    print("\n".join(lines))
    print(f"{flagged} flagged")
    return 1 if flagged else 0
