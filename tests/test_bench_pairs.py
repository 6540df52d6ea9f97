import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402
from bench_pairs import (benchmark_digest, quartiles,  # noqa: E402
                         settable_values, settings, source_lines, summarize,
                         summarize_faults)

METRICS = {"fast": "lower", "busy": "higher"}


def run(values, digests=("a", "b"), failed=0, attempted=2):
    """One synthetic perfbench result, shaped as ``perfbench`` returns it."""
    return (values, failed, attempted, list(digests))


def test_ties_count_for_neither_side_and_directions_are_opposite():
    runs = {"parent": [run({"fast": 2.0, "busy": 2.0}),
                       run({"fast": 2.0, "busy": 2.0}),
                       run({"fast": 2.0, "busy": 2.0})],
            "change": [run({"fast": 2.0, "busy": 2.0}),   # tie
                       run({"fast": 1.0, "busy": 1.0}),   # lower
                       run({"fast": 3.0, "busy": 3.0})]}  # higher
    row = summarize(runs, METRICS, [1, 2, 3], 30)
    assert row["fast"]["change_better_pairs"] == 1
    assert row["busy"]["change_better_pairs"] == 1
    runs["change"] = runs["parent"]
    row = summarize(runs, METRICS, [1, 2, 3], 30)
    assert row["fast"]["change_better_pairs"] == 0
    assert row["busy"]["change_better_pairs"] == 0


def test_quartiles_are_inclusive_q1_median_q3():
    assert quartiles([5, 1, 3, 2, 4]) == [2, 3, 4]
    assert quartiles([1, 2, 3, 4]) == [1.75, 2.5, 3.25]
    runs = {side: [run({"fast": v, "busy": v}) for v in values]
            for side, values in (("parent", (1, 2, 3, 4)),
                                 ("change", (4, 4, 4, 4)))}
    row = summarize(runs, METRICS, [1, 2, 3, 4], 30)
    assert row["fast"]["parent_quartiles"] == [1.75, 2.5, 3.25]
    assert row["fast"]["change_quartiles"] == [4, 4, 4]


def test_faults_keep_their_runs_beside_each_sides_quartiles():
    got = {"parent": [{"ops": 3, "minflt_per_op": v} for v in (4, 1, 3, 2)],
           "change": [{"ops": 3, "minflt_per_op": 7.0}] * 4}
    row = summarize_faults(got)
    assert row["parent"] == got["parent"] and row["change"] == got["change"]
    assert row["parent_quartiles"] == [1.75, 2.5, 3.25]
    assert row["change_quartiles"] == [7.0, 7.0, 7.0]
    assert set(row) == {"parent", "change", "parent_quartiles",
                        "change_quartiles"}


def test_digests_compare_up_to_the_shorter_run():
    pairs = [(("a", "b", "c"), ("a", "b")),  # equal over two operations
             (("a",), ("a", "x")),           # equal over one
             (("a", "b"), ("x", "b"))]       # differ
    runs = {"parent": [run({"fast": 1, "busy": 1}, p) for p, _ in pairs],
            "change": [run({"fast": 1, "busy": 1}, c) for _, c in pairs]}
    row = summarize(runs, METRICS, [7, 8, 9], 30)
    assert row["pairs_with_identical_digests"] == 2


def test_failures_and_attempts_sum_per_side():
    runs = {"parent": [run({"fast": 1, "busy": 1}, failed=1, attempted=5)] * 2,
            "change": [run({"fast": 1, "busy": 1}, failed=0, attempted=6)] * 2}
    row = summarize(runs, METRICS, [1, 2], 30)
    assert (row["parent_failed"], row["parent_attempted"]) == (2, 10)
    assert (row["change_failed"], row["change_attempted"]) == (0, 12)


def test_metric_set_is_benchmark_json_end_to_end():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names, metrics, seconds = settings(ROOT)
    assert names == [w["name"] for w in bench["workloads"]]
    assert metrics == {m["name"]: m["better"] for m in bench["end_to_end"]}
    assert seconds == bench["run_seconds"]
    row = summarize({side: [run({m: 1.0 for m in metrics})] * 2
                     for side in ("parent", "change")},
                    metrics, [1, 2], seconds)
    assert set(row) == set(metrics) | {
        "pairs", "seconds", "seeds", "pairs_with_identical_digests",
        "parent_failed", "parent_attempted", "change_failed",
        "change_attempted"}


def make_tree(root, bench=b"{}", runner=b"print(1)\n"):
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_bytes(bench)
    (root / "perfbench" / "run.py").write_bytes(runner)
    return root


def test_digest_covers_perfbench_and_benchmark_json_only(tmp_path):
    base = benchmark_digest(make_tree(tmp_path / "a"))
    ran = make_tree(tmp_path / "b")
    (ran / "perfbench" / "out").mkdir()
    (ran / "perfbench" / "out" / "run.json").write_text("{}")
    (ran / "perfbench" / "__pycache__").mkdir()
    (ran / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")
    (ran / "src").mkdir()
    (ran / "src" / "lib.py").write_text("x = 1\n")
    assert benchmark_digest(ran) == base
    assert benchmark_digest(make_tree(tmp_path / "c", bench=b"[]")) != base
    assert benchmark_digest(make_tree(tmp_path / "d", runner=b"")) != base


def test_mismatched_trees_stop_before_any_run(tmp_path, monkeypatch):
    parent = make_tree(tmp_path / "parent")
    change = make_tree(tmp_path / "change", runner=b"print(2)\n")

    def no_run(*args):
        raise AssertionError("a measurement ran")

    monkeypatch.setattr(bench_pairs, "perfbench", no_run)
    monkeypatch.setattr(bench_pairs, "child_faults", no_run)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", str(parent), "--change", str(change),
        "--seed", "1", "--out", str(tmp_path / "out.json")])
    with pytest.raises(SystemExit, match="differ"):
        bench_pairs.main()
    assert not (tmp_path / "out.json").exists()


def test_source_lines_counts_raw_and_code_only_lines(tmp_path):
    pkg = tmp_path / "src" / "nodulesynth"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        '"""Module docstring\nover two lines."""\n'
        "\n"
        "# a comment line\n"
        "X = 1  # a trailing comment\n"
        "def f(a,\n"
        "      b):\n"
        '    """Docstring."""\n'
        "\n"
        '    return """a string\n'
        'that is code"""\n')
    (pkg / "b.py").write_text("Y = 2\n")
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "c.py").write_text("Z = 3\n")
    # Code: X, f's two signature lines, the return's two lines, and Y.
    assert source_lines(tmp_path) == {"raw": 12, "code": 6}


def test_source_lines_raw_count_is_wc_l_of_the_package():
    files = (ROOT / "src" / "nodulesynth").rglob("*.py")
    got = source_lines(ROOT)
    assert got["raw"] == sum(p.read_text().count("\n") for p in files)
    assert 0 < got["code"] < got["raw"]


def test_settable_values_count_defaults_of_parameters_and_dataclass_fields(
        tmp_path):
    pkg = tmp_path / "src" / "nodulesynth"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *args, c, d=2, **kw):\n"   # b, d
        "    g = lambda x, y=3: x + y\n"          # y
        "    return g\n"
        "class Plain:\n"
        "    x: int = 1\n"                        # not a dataclass
        "    def m(self, k=None):\n"              # k
        "        pass\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    a: int\n"
        "    b: int = 0\n"                        # b
        "    C = 5\n"                             # not a field
        "@dataclasses.dataclass\n"
        "class Dotted:\n"
        "    a: tuple = ()\n")                    # a
    (pkg / "b.py").write_text("def h(x=0):\n    pass\n")  # x
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "c.py").write_text("def t(x=0):\n    pass\n")
    assert settable_values(tmp_path) == 7
