"""Tests of the benchmark itself: the generator, the digest check and the span arithmetic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import check
import generate
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _read_all(directory: Path) -> dict[str, bytes]:
    return {name: (directory / name).read_bytes() for name in generate.FILES}


def test_generator_same_seed_same_bytes(tmp_path):
    generate.write_inputs("desk", 7, tmp_path / "a")
    generate.write_inputs("desk", 7, tmp_path / "b")
    generate.write_inputs("desk", 8, tmp_path / "c")
    assert _read_all(tmp_path / "a") == _read_all(tmp_path / "b")
    assert _read_all(tmp_path / "a")["ratings.dat"] != _read_all(tmp_path / "c")["ratings.dat"]


def test_generator_keeps_the_shape_fixed_across_seeds(tmp_path):
    rows = []
    for seed in (1, 2):
        generate.write_inputs("desk", seed, tmp_path / str(seed))
        lines = (tmp_path / str(seed) / "ratings.dat").read_text().splitlines()
        users = [int(line.split("::")[0]) for line in lines]
        counts = np.bincount(users)[1:]
        assert counts.size == generate.SHAPES["desk"].n_users
        assert counts.min() >= generate.SHAPES["desk"].min_activity
        rows.append(sorted(counts.tolist()))
    assert rows[0] == rows[1]


def test_generated_files_parse_with_the_package(tmp_path):
    sys.path.insert(0, str(SRC))
    try:
        from contentcf import ingest
    finally:
        sys.path.remove(str(SRC))
    generate.write_inputs("desk", 3, tmp_path)
    shape = generate.SHAPES["desk"]
    ratings = ingest.parse_ratings(tmp_path / "ratings.dat")
    movies = ingest.parse_movies(tmp_path / "movies.dat")
    store = ingest.load_profiles(tmp_path / "profiles.jsonl")
    assert len({r.user_id for r in ratings}) == shape.n_users
    assert len(movies) == len(store) == shape.n_items
    with_people = sum(1 for p in store.profiles.values() if p.directors and p.actors)
    assert with_people > shape.n_items // 2
    assert all(1 <= len(p.genres) <= 3 for p in store.profiles.values())


def test_cache_reuses_and_evicts(tmp_path):
    first = generate.cached_inputs("desk", 1, tmp_path, keep=2)
    stamp = (first / "ratings.dat").stat().st_mtime_ns
    assert generate.cached_inputs("desk", 1, tmp_path, keep=2) == first
    assert (first / "ratings.dat").stat().st_mtime_ns == stamp
    time.sleep(0.01)
    generate.cached_inputs("desk", 2, tmp_path, keep=2)
    time.sleep(0.01)
    generate.cached_inputs("desk", 3, tmp_path, keep=2)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["desk-2", "desk-3"]


def _grid() -> list[dict]:
    return [
        {
            "method": "pc",
            "k": k,
            "fold_maes": [(0.7 + 0.01 * f + 0.001 * k).hex() for f in range(5)],
            "mae": (0.72 + 0.001 * k).hex(),
            "predictions": 90,
            "fallbacks": 3,
            "skipped": 10,
        }
        for k in (5, 10)
    ]


def test_digest_changes_with_one_ulp():
    grid = _grid()
    base = check.grid_digest(grid)
    assert check.grid_digest(_grid()) == base
    bumped = _grid()
    value = float.fromhex(bumped[1]["fold_maes"][3])
    bumped[1]["fold_maes"][3] = math.nextafter(value, math.inf).hex()
    assert check.grid_digest(bumped) != base
    pooled = _grid()
    pooled[0]["mae"] = math.nextafter(float.fromhex(pooled[0]["mae"]), 0.0).hex()
    assert check.grid_digest(pooled) != base


def test_digest_covers_the_counts():
    base = check.grid_digest(_grid())
    for field in ("predictions", "fallbacks", "skipped", "k"):
        grid = _grid()
        grid[0][field] += 1
        assert check.grid_digest(grid) != base


def test_invariants():
    assert check.invariant_errors(_grid(), held_out=100) == []
    assert check.invariant_errors(_grid(), held_out=101)
    grid = _grid()
    grid[0]["fallbacks"] = 91
    assert check.invariant_errors(grid, held_out=100)
    grid = _grid()
    grid[1]["fold_maes"][0] = math.nan.hex()
    assert check.invariant_errors(grid, held_out=100)


def test_unrecorded_seed_is_unverified(tmp_path):
    table = tmp_path / "ref.json"
    table.write_text(json.dumps({"full-pc": {"1": "abc"}}))
    assert check.reference_digest("full-pc", 1, table) == "abc"
    assert check.reference_digest("full-pc", 2, table) is None
    assert check.reference_digest("full-wpc", 1, table) is None


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] has A [1, 4] and B [5, 9]; A has C [2, 3]; B has D [5, 6]
    # and E [5.5, 7], which overlap, and F [8.5, 9.5], which runs past B.
    starts = np.array([0.0, 1.0, 5.0, 2.0, 5.0, 5.5, 8.5])
    ends = np.array([10.0, 4.0, 9.0, 3.0, 6.0, 7.0, 9.5])
    parents = np.array([-1, 0, 0, 1, 2, 2, 2])
    own = spans.self_times(starts, ends, parents)
    expected = [10 - 3 - 4, 3 - 1, 4 - 2 - 0.5, 1, 1, 1.5, 1]
    assert own.tolist() == pytest.approx(expected)


def test_tracer_self_times_partition_the_root():
    tracer = spans.Tracer()
    leaf = tracer.timed("leaf", lambda: sum(range(1000)))
    mid = tracer.timed("mid", lambda: [leaf() for _ in range(3)])
    root = tracer.timed("root", lambda: [mid() for _ in range(2)])
    root()
    own = tracer.self_seconds()
    total = tracer.ends[0] - tracer.starts[0]
    assert sum(own.values()) == pytest.approx(total, abs=1e-9)
    assert tracer.counts["leaf.calls"] == 6
    assert tracer.counts["mid.calls"] == 2


def _tiny_inputs(directory: Path) -> None:
    rng = np.random.default_rng(5)
    lines = []
    for user in range(1, 41):
        for item in sorted(rng.choice(30, size=12, replace=False) + 1):
            lines.append(f"{user}::{item}::{int(rng.integers(1, 6))}::0")
    directory.mkdir()
    (directory / "ratings.dat").write_text("\n".join(lines) + "\n")
    profiles = [
        json.dumps({"item_id": i, "title": f"M{i}", "genres": [["Drama", "Comedy"][i % 2]],
                    "directors": [f"D{i % 4}"], "actors": [f"A{i % 5}", f"A{i % 7}"],
                    "source": "linked-data"})
        for i in range(1, 31)
    ]
    (directory / "profiles.jsonl").write_text("\n".join(profiles) + "\n")


def _traced(inputs: Path, workers: int, spans_path: Path) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "protocol.py"), "--inputs", str(inputs),
         "--method", "wpc", "--workers", str(workers), "--spans", str(spans_path),
         "--spawned-at", repr(time.monotonic())],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_counts_merge_across_pool_workers(tmp_path):
    inputs = tmp_path / "tiny"
    _tiny_inputs(inputs)
    serial = _traced(inputs, 1, tmp_path / "serial.json")
    pooled = _traced(inputs, 2, tmp_path / "pooled.json")
    assert check.grid_digest(serial["reports"]) == check.grid_digest(pooled["reports"])
    # Each worker has its own weight memo, so weights_computed may differ.
    for name in ("cf.predict.calls", "cf.rank_candidates.calls", "cf.neighbors_used",
                 "cf.candidates_scored", "weighting.weights_requested",
                 "weighting.weights_for.calls"):
        assert serial["layers"][name] == pooled["layers"][name] > 0
    assert pooled["layers"]["evaluation.pool_s"] > 0.0
    assert serial["layers"]["evaluation.pool_s"] == 0.0
    for result in (serial, pooled):
        assert abs(result["unattributed_s"]) < 1e-6
    written = json.loads((tmp_path / "pooled.json").read_text())
    assert "evaluation.pool" in written["names"]


def test_benchmark_json_matches_the_metric_tables():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
