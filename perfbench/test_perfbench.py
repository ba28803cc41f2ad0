"""Tests of the benchmark's own output checks.

Run from the repository root with `python -m pytest perfbench`.  They run
tiny versions of the workloads through the same runner the benchmark uses.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _failed_ops(workload, tmp_path, seed=7):
    inputs = workload.inputs(seed)
    records = run.end_to_end(workload, inputs, tmp_path, seconds=0)["ops"]
    return run.count_failed(records), len(records)


def test_correct_outputs_count_no_failures(tmp_path):
    tiny = workloads.SparseSums((("prime_indicator", 1000), ("squarefree_indicator", 1000)))
    assert _failed_ops(tiny, tmp_path) == (0, 4)


def test_wrong_reference_makes_ops_failed_nonzero(tmp_path, monkeypatch):
    wrong = {**checks.PUBLISHED["prime_indicator"], 1000: 169}
    monkeypatch.setitem(checks.PUBLISHED, "prime_indicator", wrong)
    tiny = workloads.SparseSums((("prime_indicator", 1000), ("squarefree_indicator", 1000)))
    assert _failed_ops(tiny, tmp_path) == (1, 4)


def test_squarefree_identity_matches_published_counts():
    for c, q in checks.PUBLISHED["squarefree_indicator"].items():
        assert checks.squarefree_count(c) == q


def test_table_hit_that_differs_from_the_miss_fails(tmp_path):
    tiny = workloads.TableCache(count=1000, base=10**4, spot_checks=8)
    assert _failed_ops(tiny, tmp_path) == (0, 2)
    inputs = tiny.inputs(7)
    hit = tmp_path / "table_hit.txt"
    lines = hit.read_text().splitlines()
    lines[-1] = "1" if lines[-1] != "1" else "-1"
    hit.write_text("\n".join(lines) + "\n")
    miss = tmp_path / "table_miss.txt"
    assert checks.table(miss, hit, "moebius", inputs["lo"], inputs["hi"], inputs["positions"])
    miss.write_text(hit.read_text())
    assert checks.table(miss, hit, "moebius", inputs["lo"], inputs["hi"], [inputs["hi"]])
