"""The committed benchmark evidence: every ``BENCH_*.json`` at the root.

Each file records paired runs of ``bench/run.py`` on a parent and a change
and the performance claim they back.  The shape is shared: the keys below,
each run a side, a workload of BENCHMARK.json and the run's last output
line.  Untraced runs carry the five end-to-end metrics, traced runs the
per-layer ones.  The claim's ``median_ratio`` must be what its runs give:
median(change) / median(parent) of the claimed metric over the untraced
runs on the claimed workload, leaving out a ``held_out`` seed, and
``pairs`` and ``change_wins`` must count those runs' seeds.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
KEYS = {"what", "parent", "command", "order", "machine", "claim", "summary", "runs"}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_evidence_files_exist():
    assert len(FILES) >= 5


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_shape(path):
    evidence = json.loads(path.read_text(encoding="utf-8"))
    assert KEYS <= set(evidence)
    assert evidence["runs"]
    for run in evidence["runs"]:
        assert run["side"] in ("parent", "change")
        assert run["workload"] in WORKLOADS
        line = run["result_line"]
        assert line["correct"] is True and line["failed"] == 0
        names = set(line["metrics"])
        assert names == set(END_TO_END) if run["trace"] == 0 else names == PER_LAYER


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_claim_recomputes(path):
    evidence = json.loads(path.read_text(encoding="utf-8"))
    claim = evidence["claim"]
    held_out = evidence.get("held_out", {}).get("seed")
    assert claim["metric"] in END_TO_END and claim["workload"] in WORKLOADS
    by_seed = {}
    for run in evidence["runs"]:
        if run["workload"] == claim["workload"] and run["trace"] == 0 and run["seed"] != held_out:
            value = run["result_line"]["metrics"][claim["metric"]]["value"]
            by_seed.setdefault(run["seed"], {}).setdefault(run["side"], []).append(value)
    values = {side: [v for runs in by_seed.values() for v in runs.get(side, [])] for side in ("parent", "change")}
    ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
    assert ratio == pytest.approx(claim["median_ratio"], rel=1e-9)
    pairs = [runs for runs in by_seed.values() if len(runs.get("parent", ())) == len(runs.get("change", ())) == 1]
    assert len(pairs) == claim["pairs"] == len(by_seed)
    better = (lambda c, p: c > p) if END_TO_END[claim["metric"]]["better"] == "higher" else (lambda c, p: c < p)
    assert sum(better(runs["change"][0], runs["parent"][0]) for runs in pairs) == claim["change_wins"]
