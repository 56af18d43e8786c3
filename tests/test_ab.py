"""The paired A/B command, ``tools/ab.py``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "ab.py"


def _load():
    spec = importlib.util.spec_from_file_location("ab", _PATH)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def _result(correct=True, failed=0, attempted=10, **values):
    return {"correct": correct, "failed": failed, "attempted": attempted,
            "metrics": {name: {"value": v} for name, v in values.items()}}


def test_report_counts_wins_in_each_metrics_declared_direction():
    metrics = [{"name": "speed", "unit": "img/s", "better": "higher"},
               {"name": "time", "unit": "ms", "better": "lower"}]
    # Pair 3 ties on speed and pair 2 has no time on the change's side.
    pairs = [(_result(speed=1.0, time=5.0), _result(speed=2.0, time=4.0)),
             (_result(speed=3.0, time=5.0), _result(False, 2, speed=1.0, time=None)),
             (_result(speed=2.0, time=5.0), _result(speed=2.0, time=6.0))]
    lines = _load().report(metrics, pairs)
    rows = {line.split()[0]: line for line in lines[1:]}
    assert rows["speed"].endswith(" 1/3") and rows["speed"].split()[2:5] == ["2", "[1.5,", "2.5]"]
    assert rows["time"].endswith(" 1/3") and rows["time"].split()[5:8] == ["5", "[4.5,", "5.5]"]
    assert rows["correct"].split()[2:] == ["parent", "3/3", "change", "2/3"]
    assert rows["failed"].split()[2:] == ["parent", "0/30", "change", "2/30"]


def test_one_short_corpus_pair_of_the_working_tree_against_itself():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(_PATH), str(ROOT), str(ROOT), "--workload", "corpus",
         "--pairs", "1", "--seconds", "0.2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()}
    for metric in declared["end_to_end"]:
        row = rows[metric["name"]]
        assert row[1] == metric["unit"] and row[-1] in ("0/1", "1/1"), row
    assert rows["correct"][2:] == ["parent", "1/1", "change", "1/1"]
    _, _, parent, parent_failed, change, change_failed = rows["failed"]
    assert (parent, change) == ("parent", "change")
    assert parent_failed.startswith("0/") and change_failed.startswith("0/")
