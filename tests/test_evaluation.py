"""Fold splitting, MAE, the experiment runner, and report emission."""

from __future__ import annotations

import csv
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from contentcf.data import MovieProfile
from contentcf.evaluation import (
    ExperimentReport,
    RunConfig,
    emit_report,
    format_comparison_grid,
    mae,
    run_experiment,
    split_folds,
)
from conftest import as_ratings, rating_triples
from oracle import naive_evaluate, naive_item_weight


def ratings_for_item(n, item_id=7):
    return as_ratings([(u + 1, item_id, (u % 5) + 1) for u in range(n)])


class TestSplitFolds:
    def test_ten_ratings_two_per_fold(self):
        folds = split_folds(ratings_for_item(10), seed=42)
        counts = Counter(folds.fold_of.values())
        assert sorted(counts.values()) == [2, 2, 2, 2, 2]

    def test_seven_ratings_spread(self):
        folds = split_folds(ratings_for_item(7), seed=42)
        counts = Counter(folds.fold_of.values())
        assert sorted(counts.values(), reverse=True) == [2, 2, 1, 1, 1]

    def test_deterministic_and_order_free(self):
        rs = ratings_for_item(13) + ratings_for_item(4, item_id=8)
        a = split_folds(rs, seed=7)
        b = split_folds(list(reversed(rs)), seed=7)
        assert a.fold_of == b.fold_of

    def test_seed_changes_assignment(self):
        rs = ratings_for_item(40)
        a = split_folds(rs, seed=1)
        b = split_folds(rs, seed=2)
        assert a.fold_of != b.fold_of

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_folds([], seed=1)


@settings(max_examples=200)
@given(rating_triples(max_users=10, max_items=6, max_ratings=50))
def test_fold_partition_properties(triples):
    rs = as_ratings(triples)
    folds = split_folds(rs, seed=3)
    # Every rating lands in exactly one fold.
    assert set(folds.fold_of) == {(r.user_id, r.item_id) for r in rs}
    assert all(0 <= f < 5 for f in folds.fold_of.values())
    # Per-item fold counts differ by at most one.
    per_item: dict[int, Counter] = {}
    for (u, i), f in folds.fold_of.items():
        per_item.setdefault(i, Counter())[f] += 1
    for counts in per_item.values():
        filled = list(counts.values()) + [0] * (5 - len(counts))
        assert max(filled) - min(filled) <= 1


class TestMae:
    def test_perfect(self):
        assert mae([(4, 4), (2, 2)]) == 0.0

    def test_symmetric_errors_do_not_cancel(self):
        assert mae([(5, 3), (1, 3)]) == pytest.approx(2.0)

    def test_fractional(self):
        assert mae([(4, 3.5), (2, 3.0)]) == pytest.approx(0.75)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mae([])


def synthetic_dataset(n_users=20, n_items=12, seed=9):
    rng = np.random.default_rng(seed)
    triples = []
    for u in range(1, n_users + 1):
        items = rng.choice(n_items, size=rng.integers(4, n_items + 1), replace=False)
        for i in items:
            triples.append((u, int(i) + 100, int(rng.integers(1, 6))))
    return triples


def synthetic_profiles(n_items=12):
    genres = ["g1", "g2", "g3", "g4"]
    catalog = {}
    for i in range(n_items):
        item = i + 100
        picked = {genres[i % 4], genres[(i // 2) % 4]}
        catalog[item] = MovieProfile(item_id=item, title=f"m{i}", genres=frozenset(picked))
    return catalog


class StoreStub:
    def __init__(self, profiles):
        self.profiles = profiles


class TestRunExperiment:
    def test_pc_matches_protocol_oracle(self):
        triples = synthetic_dataset()
        rs = as_ratings(triples)
        cfg = RunConfig(method="pc", k_values=(2, 4), seed=11, workers=1)
        reports = run_experiment(rs, cfg)

        folds = split_folds(rs, seed=11)
        expected = naive_evaluate(triples, folds.fold_of, 5, (2, 4))
        for r in reports:
            exp_mae, exp_preds, exp_fb, exp_skip = expected[r.k]
            assert r.mae == pytest.approx(exp_mae, abs=1e-12)
            assert r.predictions == exp_preds
            assert r.fallbacks == exp_fb
            assert r.skipped == exp_skip

    def test_wpc_matches_protocol_oracle(self):
        triples = synthetic_dataset(seed=21)
        rs = as_ratings(triples)
        profiles = synthetic_profiles()
        store = StoreStub(profiles)
        cfg = RunConfig(method="wpc", k_values=(3,), seed=5, workers=1)
        reports = run_experiment(rs, cfg, profiles=store)

        norm = {
            i: (frozenset(p.genres), frozenset(), frozenset())
            for i, p in profiles.items()
        }
        mfc = max(len(p.genres) for p in profiles.values())

        def weights_fn(target):
            return {i: naive_item_weight(norm[i], norm[target], mfc) for i in norm}

        folds = split_folds(rs, seed=5)
        expected = naive_evaluate(triples, folds.fold_of, 5, (3,), weights_fn=weights_fn)
        exp_mae, exp_preds, exp_fb, exp_skip = expected[3]
        assert reports[0].mae == pytest.approx(exp_mae, abs=1e-12)
        assert reports[0].predictions == exp_preds
        assert reports[0].fallbacks == exp_fb
        assert reports[0].skipped == exp_skip

    def test_repeated_runs_identical(self):
        rs = as_ratings(synthetic_dataset(seed=3))
        cfg = RunConfig(method="pc", k_values=(3, 5), seed=2, workers=1)
        assert run_experiment(rs, cfg) == run_experiment(rs, cfg)

    def test_worker_count_does_not_change_reports(self):
        rs = as_ratings(synthetic_dataset(n_users=30, seed=17))
        serial = run_experiment(rs, RunConfig(method="pc", k_values=(3,), seed=2, workers=1))
        parallel = run_experiment(rs, RunConfig(method="pc", k_values=(3,), seed=2, workers=2))
        assert serial == parallel

    def test_wpc_without_profiles_rejected(self):
        rs = as_ratings(synthetic_dataset())
        with pytest.raises(ValueError, match="profiles"):
            run_experiment(rs, RunConfig(method="wpc", workers=1))

    def test_sample_test_limits_predictions(self):
        rs = as_ratings(synthetic_dataset())
        cfg = RunConfig(method="pc", k_values=(3,), seed=2, workers=1, sample_test=5)
        reports = run_experiment(rs, cfg)
        assert reports[0].predictions + reports[0].skipped == 5 * 5

    def test_sample_test_deterministic(self):
        rs = as_ratings(synthetic_dataset())
        cfg = RunConfig(method="pc", k_values=(3,), seed=2, workers=1, sample_test=7)
        assert run_experiment(rs, cfg) == run_experiment(rs, cfg)

    def test_global_split_mode(self):
        rs = as_ratings(synthetic_dataset())
        cfg = RunConfig(method="pc", k_values=(3,), seed=2, workers=1, split="global")
        reports = run_experiment(rs, cfg)
        assert reports[0].predictions + reports[0].skipped == len(rs)

    def test_counts_balance(self):
        rs = as_ratings(synthetic_dataset(seed=33))
        cfg = RunConfig(method="pc", k_values=(2,), seed=4, workers=1)
        r = run_experiment(rs, cfg)[0]
        assert r.predictions + r.skipped == len(rs)
        assert len(r.fold_maes) == 5
        # Pooled MAE is the prediction-weighted mean of the fold MAEs.
        assert 0.0 <= r.mae <= 4.0


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.k_values == (5, 10, 20, 30, 50)
        assert cfg.seed == 42
        assert cfg.k0_branch == "mv"
        assert cfg.denominator == "abs"
        assert cfg.effective_workers >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "nope"},
            {"k_values": ()},
            {"k_values": (0,)},
            {"sample_test": 0},
            {"denominator": "ABS"},
            {"split": "bogus"},
            {"k0_branch": "x"},
            {"min_sim": float("nan")},
            {"workers": -3},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


def _reports():
    return [
        ExperimentReport("pc", k, (0.8, 0.81, 0.79, 0.8, 0.8), 0.8, 100, 3, 1)
        for k in (5, 10, 20, 30, 50)
    ] + [
        ExperimentReport("wpc", k, (0.7, 0.71, 0.69, 0.7, 0.7), 0.7, 100, 3, 1)
        for k in (5, 10, 20, 30, 50)
    ]


class TestEmitReport:
    def test_row_count_and_header(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        emit_report(_reports(), path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == [
            "method", "k", "fold0", "fold1", "fold2", "fold3", "fold4",
            "mae", "predictions", "fallbacks", "skipped",
        ]
        assert len(rows) == 11
        assert rows[1][:2] == ["pc", "5"]
        assert rows[1][7] == "0.8000"

    def test_single_report(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_report(_reports()[:1], path)
        rows = list(csv.reader(path.open()))
        assert len(rows) == 2

    def test_four_decimal_formatting(self, tmp_path):
        path = tmp_path / "fmt.csv"
        r = ExperimentReport("pc", 5, (0.123456,) * 5, 0.679312, 10, 0, 0)
        emit_report([r], path)
        rows = list(csv.reader(path.open()))
        assert rows[1][2] == "0.1235"
        assert rows[1][7] == "0.6793"

    def test_grid_layout(self):
        grid = format_comparison_grid(_reports())
        lines = grid.splitlines()
        assert lines[0].split() == ["Number", "of", "Neighbours", "PC", "WPC"]
        assert lines[1].split() == ["5", "0.8000", "0.7000"]
        assert len(lines) == 6

    def test_grid_printed(self, tmp_path, capsys):
        emit_report(_reports()[:1], tmp_path / "x.csv")
        out = capsys.readouterr().out
        assert "Number of Neighbours" in out

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], tmp_path / "empty.csv")

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit_report(_reports(), tmp_path / "missing" / "report.csv")
