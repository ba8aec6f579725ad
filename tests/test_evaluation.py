"""Fold splitting, MAE, the experiment runner, and report emission."""

from __future__ import annotations

import csv
import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from contentcf import evaluation
from contentcf.cf import rank_candidates
from contentcf.data import MovieProfile, RatingMatrix, build_matrix
from contentcf.evaluation import (
    ExperimentReport,
    RunConfig,
    _split_global,
    emit_report,
    format_comparison_grid,
    mae,
    run_experiment,
    split_folds,
)
from conftest import as_ratings, rating_triples
from oracle import naive_evaluate, naive_item_weight


SPLITS = {"per-item": split_folds, "global": _split_global}


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

    @pytest.mark.parametrize("n_folds", [0, 128])
    @pytest.mark.parametrize("mode", sorted(SPLITS))
    def test_fold_count_outside_the_label_range_rejected(self, mode, n_folds):
        with pytest.raises(ValueError, match="n_folds"):
            SPLITS[mode](ratings_for_item(300), seed=1, n_folds=n_folds)

    def test_folds_label_the_matrix_entries(self):
        rs = as_ratings(synthetic_dataset())
        folds = split_folds(rs, seed=4)
        assert folds.fold.dtype == np.int8
        assert folds.fold.shape == (folds.matrix.n_ratings,) == (len(rs),)
        assert not folds.fold.flags.writeable
        users, items = folds.matrix.users, folds.matrix.items
        u_idx, i_idx, _ = folds.matrix._entries()
        pairs = [(users[u], items[i]) for u, i in zip(u_idx, i_idx)]
        assert pairs == sorted((r.user_id, r.item_id) for r in rs)
        assert [folds.fold_of[p] for p in pairs] == folds.fold.tolist()
        with pytest.raises(TypeError):
            folds.fold_of[pairs[0]] = 0


# sha256 of the sorted fold_of items of synthetic_dataset(n_users=60) at seed
# 42, recorded when the assignment was a dict filled rating by rating.
PINNED_ASSIGNMENTS = {
    "per-item": "77dd3d11028bdb5a58f72b82308b29137f7973eab58e3c15918f83233df4caf0",
    "global": "84e5cffad5177f77f414593444c2317e4ca6e63d3669a77d6f81908d2e5d8fe8",
}


@pytest.mark.parametrize("mode", sorted(SPLITS))
def test_fold_assignment_pinned(mode):
    folds = SPLITS[mode](as_ratings(synthetic_dataset(n_users=60)), seed=42)
    digest = hashlib.sha256(repr(sorted(folds.fold_of.items())).encode()).hexdigest()
    assert digest == PINNED_ASSIGNMENTS[mode]


@pytest.mark.parametrize("mode", sorted(SPLITS))
def test_duplicate_pair_rejected_at_the_split(mode, monkeypatch):
    rs = as_ratings(
        [(1, 10, 4), (2, 10, 3), (3, 10, 5), (1, 20, 2), (2, 20, 1), (1, 10, 5)]
    )
    with pytest.raises(ValueError, match=r"duplicate.*\(1, 10\)"):
        SPLITS[mode](rs, seed=1)

    ranked = []
    monkeypatch.setattr(evaluation, "rank_candidates", lambda *a, **kw: ranked.append(a))
    with pytest.raises(ValueError, match=r"duplicate.*\(1, 10\)"):
        run_experiment(rs, RunConfig(method="pc", k_values=(2,), workers=1, split=mode))
    assert ranked == []


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

    @pytest.mark.parametrize("sample_test", [None, 3])
    def test_unprofiled_rated_item_rejected_at_the_split(self, sample_test, monkeypatch):
        rs = as_ratings(synthetic_dataset())
        profiles = synthetic_profiles()
        del profiles[105], profiles[107]
        ranked = []
        monkeypatch.setattr(evaluation, "rank_candidates", lambda *a, **kw: ranked.append(a))
        cfg = RunConfig(method="wpc", k_values=(3,), workers=2, sample_test=sample_test)
        with pytest.raises(ValueError, match=r"2 rated item\(s\) have no profile, e.g. 105, 107"):
            run_experiment(rs, cfg, profiles=StoreStub(profiles))
        assert ranked == []

    def test_one_calculator_per_run(self, monkeypatch):
        inits = []
        original = evaluation.WeightCalculator.__init__

        def counting_init(self, *args, **kwargs):
            inits.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(evaluation.WeightCalculator, "__init__", counting_init)
        rs = as_ratings(synthetic_dataset())
        cfg = RunConfig(method="wpc", k_values=(3,), seed=5, workers=1)
        reports = run_experiment(rs, cfg, profiles=StoreStub(synthetic_profiles()))
        assert len(reports[0].fold_maes) == 5
        assert len(inits) == 1

    @pytest.mark.parametrize("method", ["pc", "wpc"])
    def test_no_rating_lookup_on_the_evaluation_path(self, method, monkeypatch):
        # Each ranking carries its candidates' deviations on the target.
        rs = as_ratings(synthetic_dataset())
        profiles = StoreStub(synthetic_profiles())
        cfg = RunConfig(method=method, k_values=(2, 4, 50), seed=11, workers=1)
        expected = run_experiment(rs, cfg, profiles=profiles)

        def no_lookup(*args):
            raise AssertionError("RatingMatrix.rating called")

        monkeypatch.setattr(RatingMatrix, "rating", no_lookup)
        assert run_experiment(rs, cfg, profiles=profiles) == expected

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

    @pytest.mark.parametrize("split", sorted(SPLITS))
    def test_fold_holding_every_rating_skips_it(self, split):
        # One rating: its fold trains on an empty matrix, every other fold holds nothing.
        cfg = RunConfig(method="pc", k_values=(1,), seed=3, workers=1, split=split)
        r = run_experiment(as_ratings([(1, 10, 4)]), cfg)[0]
        assert (r.predictions, r.fallbacks, r.skipped) == (0, 0, 1)
        assert all(np.isnan(m) for m in r.fold_maes) and np.isnan(r.mae)

    def test_counts_balance(self):
        rs = as_ratings(synthetic_dataset(seed=33))
        cfg = RunConfig(method="pc", k_values=(2,), seed=4, workers=1)
        r = run_experiment(rs, cfg)[0]
        assert r.predictions + r.skipped == len(rs)
        assert len(r.fold_maes) == 5
        # Pooled MAE is the prediction-weighted mean of the fold MAEs.
        assert 0.0 <= r.mae <= 4.0


def moderate_dataset(seed=5):
    """120 users x 80 items, ~3,000 ratings. Users 101-120 copy the rows of
    users 1-20, so candidates with exactly equal similarity are common."""
    rng = np.random.default_rng(seed)
    rows = {}
    for u in range(1, 101):
        items = rng.choice(80, size=int(rng.integers(15, 36)), replace=False)
        rows[u] = [(int(i) + 100, int(rng.integers(1, 6))) for i in items]
    for u in range(101, 121):
        rows[u] = rows[u - 100]
    return [(u, i, v) for u, row in rows.items() for i, v in row]


def moderate_profiles(seed=5):
    """A catalog for moderate_dataset's 80 items with genre, director and actor
    blocks. Labels vary in case and padding, and people names are shared
    between the director and actor pools, so normalization and the feature
    namespaces both matter."""
    rng = np.random.default_rng(seed)
    genres = [f"Genre {g}" for g in range(10)]
    people = [f"Person {p}" for p in range(25)]

    def labels(pool, lo, hi):
        picked = rng.choice(pool, size=int(rng.integers(lo, hi + 1)), replace=False)
        return frozenset(
            str(x).upper() if rng.random() < 0.3 else f" {x} " for x in picked.tolist()
        )

    return {
        item: MovieProfile(
            item_id=item,
            title=f"m{item}",
            genres=labels(genres, 1, 3),
            directors=labels(people[:10], 0, 2),
            actors=labels(people[5:], 0, 6),
        )
        for item in range(100, 180)
    }


class TestModerateScale:
    """The whole protocol at a size where folds, ties and chunking all matter."""

    K = (5, 10, 30)

    def test_dataset_has_exact_ties(self):
        triples = moderate_dataset()
        assert 2800 <= len(triples) <= 3200
        matrix = build_matrix(as_ratings(triples))
        ranked = rank_candidates(50, 100, matrix)
        values = [s.value for s in ranked]
        assert any(a == b for a, b in zip(values, values[1:]))

    def test_pc_matches_protocol_oracle(self):
        triples = moderate_dataset()
        rs = as_ratings(triples)
        cfg = RunConfig(method="pc", k_values=self.K, seed=8, workers=1)
        reports = run_experiment(rs, cfg)
        expected = naive_evaluate(triples, split_folds(rs, seed=8).fold_of, 5, self.K)
        for r in reports:
            exp_mae, *exp_counts = expected[r.k]
            assert r.mae == pytest.approx(exp_mae, abs=1e-12)
            assert [r.predictions, r.fallbacks, r.skipped] == exp_counts

    def test_wpc_matches_protocol_oracle(self):
        triples = moderate_dataset()
        rs = as_ratings(triples)
        profiles = moderate_profiles()
        cfg = RunConfig(method="wpc", k_values=self.K, seed=8, workers=1)
        reports = run_experiment(rs, cfg, profiles=StoreStub(profiles))

        def norm(labels):
            return frozenset(x.strip().casefold() for x in labels)

        sets = {i: (norm(p.genres), norm(p.directors), norm(p.actors)) for i, p in profiles.items()}
        mfc = max(len(g) + len(d) + len(a) for g, d, a in sets.values())
        memo = {}

        def weights_fn(target):
            if target not in memo:
                memo[target] = {i: naive_item_weight(s, sets[target], mfc) for i, s in sets.items()}
            return memo[target]

        folds = split_folds(rs, seed=8)
        expected = naive_evaluate(triples, folds.fold_of, 5, self.K, weights_fn=weights_fn)
        for r in reports:
            exp_mae, *exp_counts = expected[r.k]
            assert r.mae == pytest.approx(exp_mae, abs=1e-12)
            assert [r.predictions, r.fallbacks, r.skipped] == exp_counts

    @pytest.mark.parametrize(
        "method, split, sample_test",
        [
            # pc cases keep their plain "<split>-<sample_test>" ids.
            pytest.param(m, s, n, id=f"{s}-{n}" if m == "pc" else f"{m}-{s}-{n}")
            for m in ("pc", "wpc")
            for n in (None, 150)
            for s in sorted(SPLITS)
        ],
    )
    def test_worker_count_does_not_change_reports(self, method, split, sample_test):
        rs = as_ratings(moderate_dataset())
        reports = [
            run_experiment(
                rs,
                RunConfig(
                    method=method,
                    k_values=self.K,
                    seed=8,
                    workers=workers,
                    split=split,
                    sample_test=sample_test,
                ),
                profiles=StoreStub(moderate_profiles()),
            )
            for workers in (1, 2)
        ]
        assert reports[0] == reports[1]


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
            {"k_values": (2.5,)},
            {"k_values": (True,)},
            {"k_values": (3, 3)},
            {"sample_test": 2.5},
            {"sample_test": True},
            {"workers": 1.5},
            {"seed": True},
            {"seed": None},
            {"seed": "x"},
            {"seed": 1.5},
            {"min_sim": True},
            {"min_sim": "0.5"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = RunConfig(
            k_values=(np.int64(5), 7),
            seed=np.uint32(7),
            sample_test=np.int32(3),
            workers=np.int64(2),
            min_sim=np.float32(0.25),
        )
        assert cfg.k_values == (5, 7)
        assert all(type(k) is int for k in cfg.k_values)


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
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
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
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2

    def test_four_decimal_formatting(self, tmp_path):
        path = tmp_path / "fmt.csv"
        r = ExperimentReport("pc", 5, (0.123456,) * 5, 0.679312, 10, 0, 0)
        emit_report([r], path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
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
