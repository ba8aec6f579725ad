"""Fold splitting, MAE, the experiment runner, and report emission."""

from __future__ import annotations

import csv
import hashlib
import logging
import os
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contentcf import evaluation
from contentcf.cf import EMPTY_RANKING, NeighborSet, _plain_grid, predict, rank_candidates
from contentcf.data import MovieProfile, RatingMatrix, build_matrix
from contentcf.evaluation import (
    N_FOLDS,
    ExperimentReport,
    RunConfig,
    emit_report,
    format_comparison_grid,
    mae,
    run_experiment,
    split_folds,
)
from conftest import as_ratings, rating_triples
from oracle import by_user, naive_evaluate, naive_item_weight, naive_predict, naive_rank


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

    def test_folds_label_the_matrix_entries(self):
        rs = as_ratings(synthetic_dataset())
        folds = split_folds(rs, seed=4)
        assert folds.fold.dtype == np.int8
        assert folds.fold.shape == (folds.matrix.n_ratings,) == (len(rs),)
        assert not folds.fold.flags.writeable
        users, items = folds.matrix.users, folds.matrix.items
        u_idx, i_idx, _ = folds.matrix._entries(np.arange(len(rs)))
        pairs = [(users[u], items[i]) for u, i in zip(u_idx, i_idx)]
        assert pairs == sorted((r.user_id, r.item_id) for r in rs)
        assert [folds.fold_of[p] for p in pairs] == folds.fold.tolist()
        with pytest.raises(TypeError):
            folds.fold_of[pairs[0]] = 0


# sha256 of the sorted fold_of items of synthetic_dataset(n_users=60) at seed
# 42, recorded when the assignment was a dict filled rating by rating.
PINNED_ASSIGNMENT = "77dd3d11028bdb5a58f72b82308b29137f7973eab58e3c15918f83233df4caf0"


def test_fold_assignment_pinned():
    folds = split_folds(as_ratings(synthetic_dataset(n_users=60)), seed=42)
    digest = hashlib.sha256(repr(sorted(folds.fold_of.items())).encode()).hexdigest()
    assert digest == PINNED_ASSIGNMENT


def test_duplicate_pair_rejected_at_the_split(monkeypatch):
    rs = as_ratings(
        [(1, 10, 4), (2, 10, 3), (3, 10, 5), (1, 20, 2), (2, 20, 1), (1, 10, 5)]
    )
    with pytest.raises(ValueError, match=r"duplicate.*\(1, 10\)"):
        split_folds(rs, seed=1)

    # pc predicts through the per-user kernel, never through rank_candidates.
    ranked = []
    monkeypatch.setattr(evaluation, "_plain_grid", lambda *a, **kw: ranked.append(a))
    with pytest.raises(ValueError, match=r"duplicate.*\(1, 10\)"):
        run_experiment(rs, RunConfig(method="pc", k_values=(2,), workers=1))
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

    @pytest.mark.parametrize("denominator", ["abs", "signed"])
    def test_pc_rows_have_the_per_row_bits(self, denominator):
        folds = split_folds(as_ratings(moderate_dataset()), seed=8)
        held = np.flatnonzero(folds.fold == 0)
        matrix = folds.matrix._masked(folds.fold != 0)
        config = RunConfig(k_values=(30, 1, 5), denominator=denominator, min_sim=0.0)
        rows = folds.matrix._entries(held)
        got = evaluation._eval_ratings(matrix, None, config, rows)
        expected = _per_row(matrix, rows, config)
        assert _hex(got[0]) == _hex(expected[0])
        assert [a.tolist() for a in got[1:]] == [a.tolist() for a in expected[1:]]

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_per_k_fallbacks_match_protocol_oracle(self, workers):
        # On this data the fallback count differs across k.
        triples = synthetic_dataset(seed=3)
        rs = as_ratings(triples)
        k_values = (1, 2, 3)
        cfg = RunConfig(method="pc", k_values=k_values, seed=3, workers=workers)
        reports = run_experiment(rs, cfg)
        expected = naive_evaluate(triples, split_folds(rs, seed=3).fold_of, 5, k_values)
        assert [r.fallbacks for r in reports] == [expected[k][2] for k in k_values]
        assert len({r.fallbacks for r in reports}) > 1

    def test_repeated_runs_identical(self):
        rs = as_ratings(synthetic_dataset(seed=3))
        cfg = RunConfig(method="pc", k_values=(3, 5), seed=2, workers=1)
        assert run_experiment(rs, cfg) == run_experiment(rs, cfg)

    def test_worker_count_does_not_change_reports(self):
        rs = as_ratings(synthetic_dataset(n_users=30, seed=17))
        serial = run_experiment(rs, RunConfig(method="pc", k_values=(3,), seed=2, workers=1))
        parallel = run_experiment(rs, RunConfig(method="pc", k_values=(3,), seed=2, workers=2))
        assert serial == parallel

    def test_without_fork_a_run_warns_and_runs_serially(self, monkeypatch, caplog):
        rs = as_ratings(synthetic_dataset(n_users=30, seed=17))
        serial = run_experiment(rs, RunConfig(method="pc", k_values=(3,), seed=2, workers=1))

        def no_fork(method):
            raise ValueError(f"cannot find context for {method!r}")

        monkeypatch.setattr(evaluation.multiprocessing, "get_context", no_fork)
        with caplog.at_level(logging.WARNING, logger=evaluation.__name__):
            reports = run_experiment(rs, RunConfig(method="pc", k_values=(3,), seed=2, workers=3))
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["no fork start method: evaluating serially, not with 3 workers"]
        assert reports == serial

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fold_holding_every_rating_skips_it(self, workers):
        # One rating: its fold trains on an empty matrix, every other fold holds nothing.
        cfg = RunConfig(method="pc", k_values=(1,), seed=3, workers=workers)
        r = run_experiment(as_ratings([(1, 10, 4)]), cfg)[0]
        assert (r.predictions, r.fallbacks, r.skipped) == (0, 0, 1)
        assert all(np.isnan(m) for m in r.fold_maes) and np.isnan(r.mae)

    def test_worker_count_does_not_change_degenerate_folds(self):
        # Three ratings: three folds of one row each, two empty folds.
        rs = as_ratings([(1, 10, 4), (2, 10, 2), (2, 11, 5)])
        reports = [
            run_experiment(rs, RunConfig(k_values=(1, 2), seed=3, workers=w))
            for w in (1, 2)
        ]
        assert reports[0][0].predictions + reports[0][0].skipped == 3
        # repr, because the empty folds' MAEs are NaN.
        assert repr(reports[0]) == repr(reports[1])

    def test_counts_balance(self):
        rs = as_ratings(synthetic_dataset(seed=33))
        cfg = RunConfig(method="pc", k_values=(2,), seed=4, workers=1)
        r = run_experiment(rs, cfg)[0]
        assert r.predictions + r.skipped == len(rs)
        assert len(r.fold_maes) == 5
        # Pooled MAE is the prediction-weighted mean of the fold MAEs.
        assert 0.0 <= r.mae <= 4.0


class TestOnePoolPerRun:
    @pytest.fixture
    def pools(self, monkeypatch):
        """The ``max_workers`` of each pool constructed."""
        made = []

        class RecordingPool(evaluation.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", RecordingPool)
        return made

    @pytest.fixture
    def task_counts(self, monkeypatch):
        """Each fold's number of tasks, fold by fold and run by run."""
        counts = []
        original = evaluation._reports

        def counting(config, tasks, results):
            counts.extend(np.bincount([f for f, _ in tasks], minlength=N_FOLDS).tolist())
            return original(config, tasks, results)

        monkeypatch.setattr(evaluation, "_reports", counting)
        return counts

    @pytest.fixture
    def masked(self, monkeypatch):
        calls = []
        original = RatingMatrix._masked

        def counting(self, keep):
            calls.append(keep.size)
            return original(self, keep)

        monkeypatch.setattr(RatingMatrix, "_masked", counting)
        return calls

    def test_a_pooled_run_forks_one_pool_sized_by_the_tasks(self, pools, task_counts):
        rs = as_ratings(synthetic_dataset(n_users=30, seed=17))
        reports = run_experiment(rs, RunConfig(k_values=(3,), seed=2, workers=2))
        assert len(reports[0].fold_maes) == 5 and len(task_counts) == 5
        assert pools == [2] and 2 <= sum(task_counts)

    def test_a_pool_has_no_more_workers_than_tasks(self, pools, task_counts):
        rs = as_ratings([(1, 10, 4), (2, 10, 2), (2, 11, 5)])
        run_experiment(rs, RunConfig(k_values=(1,), seed=3, workers=4))
        assert sum(task_counts) == 3
        assert pools == [3]

    @pytest.mark.parametrize(
        "triples, workers",
        [(synthetic_dataset(), 1), ([(1, 10, 4)], 2)],
        ids=["one-worker", "one-task"],
    )
    def test_no_pool_for_one_worker_or_one_task(self, pools, task_counts, triples, workers):
        run_experiment(as_ratings(triples), RunConfig(k_values=(1,), seed=3, workers=workers))
        assert workers == 1 or sum(task_counts) == 1
        assert pools == []

    @pytest.mark.parametrize("workers, parent_builds", [(1, 5), (2, 0)])
    def test_fold_matrices_are_built_where_they_are_used(self, masked, workers, parent_builds):
        rs = as_ratings(synthetic_dataset())
        run_experiment(rs, RunConfig(k_values=(3,), seed=2, workers=workers))
        assert len(masked) == parent_builds
        assert evaluation._worker == {}

    @pytest.mark.parametrize("method", ["pc", "wpc"])
    def test_a_dropped_fold_matrix_is_freed_before_the_next_is_built(self, monkeypatch, method):
        built = []
        original = RatingMatrix._masked

        def masked(self, keep):
            # No earlier fold's matrix is alive, cf's scan memo included.
            assert [ref() for ref in built] == [None] * len(built)
            sub = original(self, keep)
            built.append(weakref.ref(sub))
            return sub

        monkeypatch.setattr(RatingMatrix, "_masked", masked)
        rs = as_ratings(synthetic_dataset())
        profiles = StoreStub(synthetic_profiles()) if method == "wpc" else None
        cfg = RunConfig(method=method, k_values=(3,), seed=2, workers=1)
        run_experiment(rs, cfg, profiles=profiles)
        assert len(built) == 5

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_chunk_leaves_no_worker_state(self, monkeypatch, workers):
        def failing(*args):
            raise RuntimeError("chunk failed")

        monkeypatch.setattr(evaluation, "_eval_ratings", failing)
        rs = as_ratings(synthetic_dataset())
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_experiment(rs, RunConfig(k_values=(3,), seed=2, workers=workers))
        assert evaluation._worker == {}

    def test_each_fold_is_logged_when_its_last_task_returns(
        self, monkeypatch, caplog, task_counts
    ):
        caplog.set_level(logging.INFO, logger=evaluation.__name__)
        logged_before = []
        original = evaluation._eval_ratings

        def recording(*args):
            logged_before.append(len(caplog.records))
            return original(*args)

        monkeypatch.setattr(evaluation, "_eval_ratings", recording)
        rs = as_ratings(synthetic_dataset(n_users=30, seed=17))
        run_experiment(rs, RunConfig(k_values=(3,), seed=2, workers=1))
        # A fold's tasks run after every earlier fold's line and before its own.
        assert logged_before == [f for f, n in enumerate(task_counts) for _ in range(n)]
        assert len(caplog.records) == 5 and max(task_counts) > 1


@pytest.fixture
def run_tasks(monkeypatch):
    """Each run's task list, (fold, held-out entry indices) pairs, as ``_reports`` gets it."""
    runs = []
    original = evaluation._reports

    def recording(config, tasks, results):
        runs.append(tasks)
        return original(config, tasks, results)

    monkeypatch.setattr(evaluation, "_reports", recording)
    return runs


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize(
    "triples", [synthetic_dataset(), [(1, 10, 4), (2, 10, 2), (2, 11, 5)]],
    ids=["synthetic", "two-empty-folds"],
)
def test_tasks_cut_each_fold_into_even_consecutive_slices(run_tasks, triples, workers):
    rs = as_ratings(triples)
    run_experiment(rs, RunConfig(k_values=(1,), seed=3, workers=workers))
    folds = split_folds(rs, seed=3)
    (tasks,) = run_tasks
    assert [f for f, _ in tasks] == sorted(f for f, _ in tasks)
    for f in range(N_FOLDS):
        chunks = [held for g, held in tasks if g == f]
        held = np.flatnonzero(folds.fold == f)
        assert len(chunks) <= 4 * workers and all(c.size for c in chunks)
        # In order and covering the fold's rows; no task for an empty fold.
        assert np.concatenate([held[:0]] + chunks).tolist() == held.tolist()
        if chunks:
            sizes = [c.size for c in chunks]
            assert max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("method", ["pc", "wpc"])
def test_a_user_whose_rows_straddle_two_tasks_leaves_the_reports_alone(run_tasks, method):
    rs = as_ratings(synthetic_dataset(n_users=8, seed=5))
    profiles = StoreStub(synthetic_profiles()) if method == "wpc" else None
    configs = [RunConfig(method=method, k_values=(1, 3, 5), seed=2, workers=w) for w in (1, 2, 3)]
    reports = [run_experiment(rs, config, profiles=profiles) for config in configs]
    assert reports[1] == reports[0] and reports[2] == reports[0]
    # Without teeth unless, in every run, some user's rows straddle two tasks of a fold.
    matrix = split_folds(rs, seed=2).matrix
    user_of = matrix._entries(np.arange(matrix.n_ratings))[0]
    for tasks in run_tasks:
        straddles = [
            f == g and user_of[a[-1]] == user_of[b[0]]
            for (f, a), (g, b) in zip(tasks, tasks[1:])
        ]
        assert any(straddles), straddles


# -- pc's per-user kernel against the per-row path and the oracle -----------------


def _per_row(matrix, rows, config):
    """``_eval_ratings``' arrays for pc, one row at a time: ``rank_candidates``, then
    ``NeighborSet(ranked[:k])`` and ``predict`` for each k."""
    users, items, actuals = (col.tolist() for col in rows)
    errors = np.zeros((len(config.k_values), len(users)))
    fallbacks = np.zeros(errors.shape, dtype=bool)
    predicted = np.zeros(len(users), dtype=bool)
    for row, (u, i, actual) in enumerate(zip(users, items, actuals)):
        if not matrix._ucount[u]:
            continue
        a, target = matrix.users[u], matrix.items[i]
        ranked = EMPTY_RANKING
        if matrix._icount[i]:
            ranked = rank_candidates(a, target, matrix, min_sim=config.min_sim)
        predicted[row] = True
        for ki, k in enumerate(config.k_values):
            ns = NeighborSet(target_item=target, active_user=a, neighbors=ranked[:k])
            p = predict(a, target, ns, matrix, denominator=config.denominator)
            errors[ki, row], fallbacks[ki, row] = abs(actual - p.value), p.fallback
    return errors, fallbacks, predicted


def _hex(array):
    return [[x.hex() for x in row] for row in array.tolist()]


k_grids = st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True)
min_sims = st.none() | st.sampled_from([-1.0, 0.0, 0.2, 1.0]) | st.floats(-1.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    rating_triples(max_users=7, max_items=6, min_ratings=2),
    st.sampled_from(["abs", "signed"]),
    min_sims,
    k_grids,
    st.data(),
)
def test_plain_grid_has_the_per_row_and_oracle_bits(triples, denominator, min_sim, k_values, data):
    """One user's targets, some unseen in training, predicted at once at every k of an
    unsorted grid: the bits of predict over each ranking's head, and of the oracle."""
    full = build_matrix(as_ratings(triples))
    keep = data.draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    assume(any(keep))
    matrix = full._masked(np.array(keep))  # an item can lose every rating
    train = [t for t, kept in zip(triples, keep) if kept]
    aix = data.draw(st.sampled_from([u for u in range(len(full.users)) if matrix._ucount[u]]))
    targets = data.draw(
        st.lists(st.integers(0, len(full.items) - 1), min_size=1, unique=True)
    )
    _assert_plain_grid(matrix, train, aix, targets, tuple(k_values), denominator, min_sim)


@pytest.mark.parametrize("denominator", ["abs", "signed"])
def test_plain_grid_falls_back_on_zero_mass(denominator):
    """User 1 against item 104: users 3 and 4 tie at exactly minus user 2's similarity,
    so two neighbours' signed mass is 0.0. Item 105's only rater has similarity 0.0."""
    triples = [(1, 101, 1), (1, 102, 3), (1, 103, 5)]
    for u, values in [(2, (1, 3, 5, 4)), (3, (5, 3, 1, 2)), (4, (5, 3, 1, 2))]:
        triples += [(u, 101 + j, v) for j, v in enumerate(values)]
    triples += [(5, 101, 2), (5, 102, 4), (5, 103, 2), (5, 105, 5)]
    matrix = build_matrix(as_ratings(triples))
    targets = [matrix._item_index(104), matrix._item_index(105)]
    fell = _assert_plain_grid(matrix, triples, 0, targets, (3, 1, 2), denominator, None)
    assert fell.tolist() == [[False, True], [False, True], [denominator == "signed", True]]


@pytest.mark.parametrize("denominator", ["abs", "signed"])
def test_plain_grid_falls_back_below_den_eps(denominator):
    """User 1's best rater of item 103 has a similarity of about 1.9e-17, not 0.0: its
    mass is below _DEN_EPS, so k = 1 falls back, and k = 3 does not."""
    triples = [(1, 101, 3), (1, 102, 3), (1, 104, 2), (2, 101, 3), (2, 102, 5), (2, 103, 4)]
    triples += [(3, 101, 4), (3, 102, 2), (3, 104, 5), (4, 101, 4), (4, 102, 1), (4, 103, 2)]
    triples += [(4, 104, 4), (5, 101, 1), (5, 102, 1), (5, 103, 3), (5, 104, 2), (6, 101, 4)]
    triples += [(6, 102, 4), (6, 103, 2), (6, 104, 4)]
    matrix = build_matrix(as_ratings(triples))
    assert 0.0 < rank_candidates(1, 103, matrix)[0].value < 1e-9
    targets = [matrix._item_index(103)]
    fell = _assert_plain_grid(matrix, triples, 0, targets, (1, 3), denominator, None)
    assert fell[:, 0].tolist() == [True, False]


def _assert_plain_grid(matrix, train, aix, targets, k_values, denominator, min_sim):
    """``_plain_grid`` for one user's targets has the bits of the per-row path and of the
    oracle; returns its fallback flags."""
    config = RunConfig(k_values=k_values, denominator=denominator, min_sim=min_sim)
    got, fell = _plain_grid(matrix, aix, np.array(targets), k_values, denominator, min_sim)
    n = len(targets)
    rows = (np.full(n, aix), np.array(targets), np.zeros(n, dtype=np.int8))
    errors, fallbacks, _ = _per_row(matrix, rows, config)  # |0 - p| is p
    assert _hex(got) == _hex(errors) and fell.tolist() == fallbacks.tolist()

    table, a = by_user(train), matrix.users[aix]
    for ti, t in enumerate(targets):
        ranked = naive_rank(table, a, matrix.items[t], min_sim=min_sim)
        for ki, k in enumerate(k_values):
            top = [(u, value) for u, _raw, _cf, value, _ov in ranked[:k]]
            value, fallback = naive_predict(table, a, matrix.items[t], top, denominator)
            assert (got[ki, ti].hex(), fell[ki, ti]) == (value.hex(), fallback)
    return fell


@settings(max_examples=150, deadline=None)
@given(
    rating_triples(max_users=6, max_items=6, min_ratings=6),
    st.sampled_from(["abs", "signed"]),
    min_sims,
    k_grids,
    st.data(),
)
def test_pc_rows_cut_inside_a_user_give_the_per_row_bits(
    triples, denominator, min_sim, k_values, data
):
    """A fold's pc rows cut into two tasks inside one user's rows: each task's arrays,
    joined, are the per-row path's over the whole fold."""
    folds = split_folds(as_ratings(triples), seed=data.draw(st.integers(0, 3)))
    fold = data.draw(st.integers(0, N_FOLDS - 1))
    held = np.flatnonzero(folds.fold == fold)
    users = folds.matrix._entries(held)[0]
    inside = np.flatnonzero(users[1:] == users[:-1]) + 1
    assume(inside.size)
    cut = data.draw(st.sampled_from(inside.tolist()))
    matrix = folds.matrix._masked(folds.fold != fold)
    config = RunConfig(k_values=tuple(k_values), denominator=denominator, min_sim=min_sim)
    parts = [
        evaluation._eval_ratings(matrix, None, config, folds.matrix._entries(task))
        for task in (held[:cut], held[cut:])
    ]
    expected = _per_row(matrix, folds.matrix._entries(held), config)
    errors, fallbacks, predicted = (np.concatenate(c, axis=-1) for c in zip(*parts))
    assert _hex(errors) == _hex(expected[0])
    assert fallbacks.tolist() == expected[1].tolist()
    assert predicted.tolist() == expected[2].tolist()


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

    @pytest.mark.parametrize("sample_test", [None, 150])
    @pytest.mark.parametrize("method", ["pc", "wpc"])
    def test_worker_count_does_not_change_reports(self, method, sample_test):
        rs = as_ratings(moderate_dataset())
        reports = [
            run_experiment(
                rs,
                RunConfig(
                    method=method,
                    k_values=self.K,
                    seed=8,
                    workers=workers,
                    sample_test=sample_test,
                ),
                profiles=StoreStub(moderate_profiles()),
            )
            for workers in (1, 2)
        ]
        assert reports[0] == reports[1]


class TestRunConfig:
    def test_default_workers_follow_the_cpu_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert RunConfig().effective_workers == 1
        assert RunConfig(workers=3).effective_workers == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert RunConfig().effective_workers == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert RunConfig().effective_workers == 1

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
