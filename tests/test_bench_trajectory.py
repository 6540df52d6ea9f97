import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_trajectory  # noqa: E402


def test_prints_each_pairs_bench_by_first_seed(capsys):
    # BENCH_output.json predates benchmark_sha256, so it is skipped.
    bench_trajectory.main([str(ROOT / name) for name in (
        "BENCH_one_rule.json", "BENCH_output.json", "BENCH_one_conv.json")])
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith(" ")] == [
        "BENCH_one_conv.json", "BENCH_one_rule.json"]  # seeds 18101, 19101
    rule = lines[lines.index("BENCH_one_rule.json") + 1:]
    assert rule[0] == ("  source_lines raw 2766 -> 2764, code 1696 -> 1674; "
                       "settable_values 60 -> 59")
    train = next(line for line in rule if "train-tinyconv-32" in line)
    # Its call_s.p50 pairs (parent -> change, s) sort by change / parent
    # with 0.0497 -> 0.0449 and 0.0480 -> 0.0442 in the middle.
    median = (0.0449 / 0.0497 + 0.0442 / 0.0480) / 2
    assert f"call_s.p50 {median:.3f} " in train
    assert train.endswith("identical digests 10/10")
