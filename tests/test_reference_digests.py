"""The full 5-fold protocol on the benchmark's desk inputs, seed 0, reproduces the
recorded grid digests bit for bit, under both methods, and pc also with two workers.

The generator and the digest come from ``perfbench/`` itself, loaded by file
path, so this guard and the benchmark cannot drift apart.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from contentcf import ingest
from contentcf.evaluation import RunConfig, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
K_GRID = (5, 10, 20, 30, 50)
FOLD_SEED = 42
DATA_SEED = 0


def _load(name: str):
    module_name = f"_perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


@pytest.fixture(scope="module")
def desk_inputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("desk")
    _load("generate").write_inputs("desk", DATA_SEED, out)
    return out


@pytest.mark.parametrize("method", ["pc", "wpc"])
def test_full_protocol_matches_reference_digest(desk_inputs, method):
    _check_digest(desk_inputs, method, workers=1)


def test_pooled_pc_matches_reference_digest(desk_inputs):
    """Two workers cut each fold into eight tasks, so some users' rows fall in two tasks
    and reach pc's per-user kernel in two parts."""
    _check_digest(desk_inputs, "pc", workers=2)


def _check_digest(desk_inputs, method, workers):
    check = _load("check")
    expected = check.reference_digest(f"full-{method}", DATA_SEED)
    assert expected is not None
    ratings = ingest.parse_ratings(desk_inputs / "ratings.dat")
    profiles = (
        ingest.load_profiles(desk_inputs / "profiles.jsonl") if method == "wpc" else None
    )
    config = RunConfig(method=method, k_values=K_GRID, seed=FOLD_SEED, workers=workers)
    reports = run_experiment(ratings, config, profiles=profiles)
    grid = [
        {
            "method": r.method,
            "k": r.k,
            "fold_maes": [float(m).hex() for m in r.fold_maes],
            "mae": float(r.mae).hex(),
            "predictions": r.predictions,
            "fallbacks": r.fallbacks,
            "skipped": r.skipped,
        }
        for r in reports
    ]
    assert check.invariant_errors(grid, held_out=len(ratings)) == []
    assert check.grid_digest(grid) == expected
