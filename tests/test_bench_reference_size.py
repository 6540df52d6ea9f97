import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_reference_size  # noqa: E402
from nodulesynth import expected_nfe  # noqa: E402


def test_writes_one_row_per_reference_edge(tmp_path):
    out = tmp_path / "ref.json"
    bench_reference_size.main(["--edges", "24,32", "--patch", "16",
                               "--trials", "2", "--out", str(out)])
    bench = json.loads(out.read_text())
    assert bench["machine"]["cores"] >= 1
    assert [(r["edge"], r["patch"], r["trials"]) for r in bench["rows"]] == [
        (24, 16, 2), (32, 16, 2)]
    for r in bench["rows"]:
        assert r["nfe"] == expected_nfe("dpm2_multistep", 10)
        assert r["phantom_s"] > 0 and r["wall_mean_s"] > 0
        assert r["wall_std_s"] >= 0
        # The phantom holds at least its f64 volume and u8 labels.
        assert r["phantom_peak_bytes"] >= 9 * r["edge"] ** 3
        assert r["peak_alloc_bytes"] > 0
