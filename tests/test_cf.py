"""Similarity, neighbor selection, and prediction against hand and brute-force oracles."""

from __future__ import annotations

import contextlib
import random
import weakref
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contentcf import cf
from contentcf.cf import (
    EMPTY_RANKING,
    NeighborSet,
    SimilarityScore,
    pearson,
    predict,
    rank_candidates,
    select_neighbors,
    significance_factor,
    weighted_pearson,
)
from contentcf.data import RatingColumns, RatingMatrix, build_matrix, index_dtype
from contentcf.weighting import WeightVector
from conftest import as_ratings, rating_triples
from oracle import by_user, naive_pearson, naive_rank


@contextlib.contextmanager
def records_built():
    """A mock whose ``call_count`` is the number of scan records built inside the block."""
    with mock.patch.object(cf, "_Scan", wraps=cf._Scan) as built:
        yield built


def uniform_weights(matrix, target, value=1.0):
    return WeightVector(
        target_id=target,
        weights={i: value for i in matrix.items},
        max_feature_count=10,
    )


class TestPearson:
    def test_identical_raters(self):
        # u rates exactly like a on 10 co-rated items.
        triples = [(1, i, (i % 5) + 1) for i in range(10)]
        triples += [(2, i, (i % 5) + 1) for i in range(10)]
        m = build_matrix(as_ratings(triples))
        raw, overlap = pearson(1, 2, m)
        assert raw == pytest.approx(1.0)
        assert overlap == 10

    def test_opposite_raters(self):
        # Deviations of u are the negation of a's (values mirrored around 3).
        triples = [(1, 0, 1), (1, 1, 5), (1, 2, 3), (2, 0, 5), (2, 1, 1), (2, 2, 3)]
        m = build_matrix(as_ratings(triples))
        raw, _ = pearson(1, 2, m)
        assert raw == pytest.approx(-1.0)

    def test_three_item_instance(self):
        # a: (5,3,1) mean 3; u: (4,2,3) mean 3 -> 2 / (sqrt(8)*sqrt(2)) = 0.5
        triples = [(1, 0, 5), (1, 1, 3), (1, 2, 1), (2, 0, 4), (2, 1, 2), (2, 2, 3)]
        m = build_matrix(as_ratings(triples))
        raw, overlap = pearson(1, 2, m)
        assert raw == pytest.approx(0.5, abs=1e-12)
        assert overlap == 3

    def test_no_overlap(self):
        m = build_matrix(as_ratings([(1, 0, 5), (2, 1, 3)]))
        assert pearson(1, 2, m) == (0.0, 0)

    def test_zero_variance(self):
        # User 1 rates every co-rated item the same, so its deviations vanish.
        m = build_matrix(as_ratings([(1, 0, 4), (1, 1, 4), (2, 0, 1), (2, 1, 5)]))
        raw, overlap = pearson(1, 2, m)
        assert raw == 0.0
        assert overlap == 2


class TestWeightedPearson:
    def test_uniform_weights_reduce_to_pearson(self):
        triples = [(1, 0, 5), (1, 1, 3), (1, 2, 1), (2, 0, 4), (2, 1, 2), (2, 2, 3)]
        m = build_matrix(as_ratings(triples))
        for c in (0.5, 1.0, 7.3):
            raw_w, _ = weighted_pearson(1, 2, 0, m, uniform_weights(m, 0, c))
            raw_p, _ = pearson(1, 2, m)
            assert raw_w == pytest.approx(raw_p, abs=1e-12)

    def test_single_item_sign(self):
        m = build_matrix(as_ratings([(1, 0, 5), (1, 1, 1), (2, 0, 4), (2, 2, 1)]))
        raw, overlap = weighted_pearson(1, 2, 0, m, uniform_weights(m, 0, 2.0))
        # Only item 0 is co-rated; both deviate upward -> +1.
        assert raw == 1.0
        assert overlap == 1

    def test_three_item_weighted_instance(self):
        # Brute-force oracle value for weights (2,1,1): 8 / (sqrt(20)*sqrt(5)) = 0.8
        triples = [(1, 0, 5), (1, 1, 3), (1, 2, 1), (2, 0, 4), (2, 1, 2), (2, 2, 3)]
        m = build_matrix(as_ratings(triples))
        wv = WeightVector(target_id=9, weights={0: 2.0, 1: 1.0, 2: 1.0}, max_feature_count=10)
        raw, _ = weighted_pearson(1, 2, 9, m, wv)
        expected, _ = naive_pearson(by_user(triples), 1, 2, {0: 2.0, 1: 1.0, 2: 1.0})
        assert expected == pytest.approx(0.8, abs=1e-12)
        assert raw == pytest.approx(expected, abs=1e-12)

    def test_target_mismatch_rejected(self, toy_ratings):
        m = build_matrix(toy_ratings)
        with pytest.raises(ValueError, match="target"):
            weighted_pearson(1, 2, 10, m, uniform_weights(m, 20))

    def test_missing_weight_rejected(self, toy_ratings):
        m = build_matrix(toy_ratings)
        wv = WeightVector(target_id=10, weights={10: 1.0}, max_feature_count=5)
        with pytest.raises(KeyError):
            weighted_pearson(1, 3, 10, m, wv)

    def test_weights_needed_only_for_co_rated_items(self):
        # Item 1 is rated by the active user alone, so it needs no weight.
        m = build_matrix(as_ratings([(1, 0, 5), (1, 1, 1), (2, 0, 4), (2, 2, 1)]))
        wv = WeightVector(target_id=0, weights={0: 2.0}, max_feature_count=5)
        assert weighted_pearson(1, 2, 0, m, wv) == (1.0, 1)


class TestSignificanceFactor:
    @pytest.mark.parametrize(
        "overlap,expected",
        [(50, 1.0), (25, 0.5), (200, 1.0), (0, 0.0), (1, 0.02), (51, 1.0)],
    )
    def test_values(self, overlap, expected):
        assert significance_factor(overlap) == pytest.approx(expected)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            significance_factor(-1)


class TestSelectNeighbors:
    def test_lonely_target_empty(self, toy_ratings):
        m = build_matrix(toy_ratings)
        ns = select_neighbors(2, 30, m, k=5)
        assert [s.user_id for s in ns.neighbors] == [3]
        # An item nobody rated has no candidates at all.
        ns = select_neighbors(1, 999, m, k=5)
        assert ns.neighbors == ()

    def test_k_exceeding_candidates(self, toy_ratings):
        m = build_matrix(toy_ratings)
        ns = select_neighbors(1, 10, m, k=5)
        assert len(ns) == 2
        values = [s.value for s in ns.neighbors]
        assert values == sorted(values, reverse=True)

    def test_k_must_be_positive(self, toy_ratings):
        m = build_matrix(toy_ratings)
        with pytest.raises(ValueError):
            select_neighbors(1, 10, m, k=0)

    @pytest.mark.parametrize("k", [True, 2.5, "2"])
    def test_k_must_be_an_integer(self, toy_ratings, k):
        # True would slice as 1, and 2.5 would fail inside the slice with a TypeError.
        m = build_matrix(toy_ratings)
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            select_neighbors(1, 10, m, k=k)

    def test_numpy_integer_k_accepted(self, toy_ratings):
        m = build_matrix(toy_ratings)
        assert select_neighbors(1, 10, m, k=np.int64(1)) == select_neighbors(1, 10, m, k=1)

    def test_ten_user_synthetic_matches_exhaustive_sort(self):
        rng = np.random.default_rng(12345)
        triples = []
        for u in range(1, 11):
            items = rng.choice(12, size=rng.integers(3, 9), replace=False)
            for i in items:
                triples.append((u, int(i), int(rng.integers(1, 6))))
        m = build_matrix(as_ratings(triples))
        table = by_user(triples)
        target = 0
        for a in range(1, 11):
            expected = naive_rank(table, a, target)
            got = select_neighbors(a, target, m, k=4)
            assert [s.user_id for s in got.neighbors] == [e[0] for e in expected[:4]]
            for s, e in zip(got.neighbors, expected[:4]):
                assert s.value == pytest.approx(e[3], abs=1e-12)
                assert s.overlap == e[4]

    def test_min_sim_floor(self, toy_ratings):
        m = build_matrix(toy_ratings)
        everyone = select_neighbors(1, 10, m, k=5)
        floored = select_neighbors(1, 10, m, k=5, min_sim=0.0)
        assert len(floored) < len(everyone)
        assert all(s.value >= 0.0 for s in floored.neighbors)


class TestPredict:
    def test_single_neighbor_reduction(self):
        # r^ = mean_a + (r_ut - mean_u) * sim / |sim| with one neighbor
        triples = [(1, 0, 3), (1, 1, 3), (2, 0, 5), (2, 1, 4), (2, 2, 3)]
        m = build_matrix(as_ratings(triples))
        sim = SimilarityScore(user_id=2, raw=0.8, cf=1.0, value=0.8, overlap=51)
        ns = NeighborSet(target_item=0, active_user=1, neighbors=(sim,))
        p = predict(1, 0, ns, m)
        assert p.value == pytest.approx(m.mean_of(1) + (5 - 4.0), abs=1e-12)
        assert not p.fallback

    def test_neighbors_at_their_means(self):
        triples = [(1, 0, 2), (1, 1, 4), (2, 0, 3), (2, 1, 3), (3, 0, 4), (3, 1, 4)]
        m = build_matrix(as_ratings(triples))
        ns = NeighborSet(
            target_item=0,
            active_user=1,
            neighbors=(
                SimilarityScore(2, 0.5, 0.04, 0.02, 2),
                SimilarityScore(3, 0.5, 0.04, 0.02, 2),
            ),
        )
        p = predict(1, 0, ns, m)
        assert p.value == pytest.approx(3.0)  # mean of user 1

    def test_empty_neighbors_fallback(self, toy_ratings):
        m = build_matrix(toy_ratings)
        ns = NeighborSet(target_item=999, active_user=1, neighbors=())
        p = predict(1, 999, ns, m)
        assert p.fallback
        assert p.value == pytest.approx(3.0)

    def test_unknown_user_rejected(self, toy_ratings):
        m = build_matrix(toy_ratings)
        ns = NeighborSet(target_item=10, active_user=99, neighbors=())
        with pytest.raises(KeyError, match="99"):
            predict(99, 10, ns, m)

    def test_mismatched_neighbor_set_rejected(self, toy_ratings):
        m = build_matrix(toy_ratings)
        ns = NeighborSet(target_item=10, active_user=1, neighbors=())
        with pytest.raises(ValueError, match="match"):
            predict(1, 20, ns, m)

    def test_clamped_to_scale(self):
        triples = [(1, 0, 5), (1, 1, 5), (2, 0, 5), (2, 1, 5), (2, 2, 5)]
        m = build_matrix(as_ratings(triples))
        sim = SimilarityScore(user_id=2, raw=1.0, cf=1.0, value=1.0, overlap=51)
        ns = NeighborSet(target_item=2, active_user=1, neighbors=(sim,))
        p = predict(1, 2, ns, m)
        assert 1.0 <= p.value <= 5.0

    def test_unknown_denominator_rejected(self, toy_ratings):
        m = build_matrix(toy_ratings)
        ns = NeighborSet(target_item=10, active_user=1, neighbors=())
        with pytest.raises(ValueError, match="denominator"):
            predict(1, 10, ns, m, denominator="ABS")

    def test_signed_denominator(self):
        triples = [(1, 0, 5), (1, 1, 1), (2, 0, 1), (2, 1, 5), (2, 2, 4)]
        m = build_matrix(as_ratings(triples))
        sim = SimilarityScore(user_id=2, raw=-1.0, cf=0.04, value=-0.04, overlap=2)
        ns = NeighborSet(target_item=2, active_user=1, neighbors=(sim,))
        p_abs = predict(1, 2, ns, m, denominator="abs")
        p_signed = predict(1, 2, ns, m, denominator="signed")
        assert p_abs.value != p_signed.value


class TestGatherMemo:
    """Each call gives what it gives as the first call after a cold memo,
    whatever matrix, user, target and method the calls before it used."""

    @staticmethod
    def _matrix(seed):
        rng = np.random.default_rng(seed)
        triples = [
            (u, int(i), int(rng.integers(1, 6)))
            for u in range(1, 7)
            for i in rng.choice(10, size=7, replace=False)
        ]
        return build_matrix(as_ratings(triples))

    def _calls(self):
        # Two matrices with the same user ids, hence the same user indices.
        matrices = [self._matrix(1), self._matrix(2)]
        calls = []
        for mi, m in enumerate(matrices):
            for a in (1, 2):
                for target in (m.items[0], m.items[-1]):
                    wv = WeightVector(
                        target_id=target,
                        weights={i: 0.25 + 0.1 * ((i + target) % 7) for i in m.items},
                        max_feature_count=10,
                    )
                    key = (mi, a, target)
                    calls += [
                        (key + ("pc",), partial(rank_candidates, a, target, m)),
                        (key + ("wpc",), partial(rank_candidates, a, target, m, weights=wv)),
                    ]
                    for u in (u for u in m.users if u != a):
                        weighted = partial(weighted_pearson, a, u, target, m, wv)
                        calls += [
                            (key + ("pearson", u), partial(pearson, a, u, m)),
                            (key + ("weighted_pearson", u), weighted),
                        ]
        return calls

    @staticmethod
    def _cold(fn):
        cf._scans.clear()
        return fn()

    def test_interleaved_calls_match_cold_calls(self):
        calls = self._calls()
        expected = {key: self._cold(fn) for key, fn in calls}
        # Without teeth if the two matrices agreed on the same user index.
        assert expected[(0, 1, 0, "pc")] != expected[(1, 1, 0, "pc")]
        orders = [calls, calls[::-1]]
        for seed in range(3):
            shuffled = list(calls)
            random.Random(seed).shuffle(shuffled)
            orders.append(shuffled)
        for order in orders:
            for key, fn in order:
                assert fn() == expected[key], key

    def test_a_record_changes_sides_mid_sequence(self):
        # One user's pair calls come first: each call of either method adds its
        # candidates' rows to the user's record, so the record scans rows, then
        # builds its gather, and every later call reads it.
        calls = self._calls()
        expected = {key: self._cold(fn) for key, fn in calls}
        block = sorted((c for c in calls if c[0][:2] == (0, 1)), key=lambda c: len(c[0]) == 4)
        cf._scans.clear()
        sides = []
        with records_built() as built:
            for key, fn in block:
                with mock.patch.object(cf, "_rater_rows", wraps=cf._rater_rows) as rows:
                    assert fn() == expected[key], key
                sides.append("rows" if rows.call_count else "gather")
        assert built.call_count == 1
        n_rows = sides.count("rows")
        assert 0 < n_rows < len(sides)
        assert sides == ["rows"] * n_rows + ["gather"] * (len(sides) - n_rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-99, 99), unique=True, max_size=30), st.data())
def test_segments_joins_ragged_slices_and_names_their_owners(values, data):
    """Distinct values, so an entry read back at ``j + offset[owner[j]]`` is that entry;
    the second array's join has the same slices."""
    array = np.array(values, dtype=np.int64)
    bound = st.integers(0, array.size)
    pairs = data.draw(st.lists(st.tuples(bound, bound).map(sorted), min_size=1, max_size=8))
    starts, ends = (np.array(c, dtype=np.intp) for c in zip(*pairs))
    joined, negated, offset, owner = cf._segments(starts, ends, array, -array)
    assert joined.tolist() == [v for lo, hi in pairs for v in values[lo:hi]]
    assert negated.tolist() == [-v for v in joined.tolist()]
    assert owner.dtype == index_dtype(len(pairs))
    assert owner.tolist() == [s for s, (lo, hi) in enumerate(pairs) for _ in range(lo, hi)]
    assert (joined == array[np.arange(joined.size) + offset[owner]]).all()


# -- vectorized path vs scalar path vs independent oracle -----------------------


@settings(max_examples=300, deadline=None)
@given(rating_triples(max_users=6, max_items=6), st.integers(1, 6), st.integers(101, 106))
def test_rank_candidates_matches_oracle(triples, a, target):
    table = by_user(triples)
    assume(a in table)
    m = build_matrix(as_ratings(triples))
    expected = naive_rank(table, a, target)
    got = rank_candidates(a, target, m)
    assert [s.user_id for s in got] == [e[0] for e in expected]
    for s, e in zip(got, expected):
        assert s.raw == pytest.approx(e[1], abs=1e-12)
        assert s.value == pytest.approx(e[3], abs=1e-12)
        assert s.overlap == e[4]


@settings(max_examples=200, deadline=None)
@given(rating_triples(max_users=6, max_items=6))
def test_scalar_pearson_matches_vectorized(triples):
    m = build_matrix(as_ratings(triples))
    users = list(m.users)
    if len(users) < 2:
        return
    a, u = users[0], users[1]
    raw, overlap = pearson(a, u, m)
    for item in m.ratings_of(u):
        ranked = rank_candidates(a, item, m)
        for s in ranked:
            if s.user_id == u:
                assert s.raw == raw
                assert s.overlap == overlap


@settings(max_examples=200, deadline=None)
@given(rating_triples(max_users=6, max_items=6), st.data())
def test_scalar_weighted_pearson_matches_vectorized(triples, data):
    m = build_matrix(as_ratings(triples))
    users = list(m.users)
    if len(users) < 2:
        return
    a, u = users[0], users[1]
    weight = st.floats(0.01, 2.0, allow_nan=False, allow_infinity=False)
    for item in m.ratings_of(u):
        wv = WeightVector(
            target_id=item,
            weights={i: data.draw(weight) for i in m.items},
            max_feature_count=10,
        )
        raw, overlap = weighted_pearson(a, u, item, m, wv)
        for s in rank_candidates(a, item, m, weights=wv):
            if s.user_id == u:
                assert s.raw == raw
                assert s.overlap == overlap


def _bits(rows):
    """Rows of (user, raw, cf, value, overlap) with every float as its exact bits."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows]


def _as_rows(ranking):
    return [(s.user_id, s.raw, s.cf, s.value, s.overlap) for s in ranking]


@settings(max_examples=300, deadline=None)
@given(
    rating_triples(max_users=7, max_items=6),
    st.integers(1, 7),
    st.integers(101, 107),
    st.none() | st.floats(-1.0, 1.0),
    st.data(),
)
def test_weighted_ranking_has_the_oracle_bits(triples, a, target, min_sim, data):
    """The candidate-only weighted sweep ranks with the oracle's exact bits;
    item 107 is never rated, so some targets have no raters at all."""
    table = by_user(triples)
    assume(a in table)
    m = build_matrix(as_ratings(triples))
    weight = st.floats(0.01, 3.0)
    weights = {i: data.draw(weight) for i in m.items}
    wv = WeightVector(target, weights, max_feature_count=10)
    got = rank_candidates(a, target, m, weights=wv, min_sim=min_sim)
    assert _bits(_as_rows(got)) == _bits(naive_rank(table, a, target, weights, min_sim))
    plain = rank_candidates(a, target, m, min_sim=min_sim)
    assert _bits(_as_rows(plain)) == _bits(naive_rank(table, a, target, None, min_sim))


class TestWeightedRankingCases:
    """Cases the candidate-only sweep must get right, against the oracle."""

    # User 2 shares no item with user 1; user 3 shares items 0-2; item 6 is
    # rated by user 1 and by user 4, who rates neither target 0 nor 5.
    TRIPLES = [
        (1, 0, 4), (1, 1, 5), (1, 2, 2), (1, 6, 3),
        (2, 3, 1), (2, 5, 3),
        (3, 0, 5), (3, 1, 4), (3, 2, 1), (3, 5, 2),
        (4, 1, 2), (4, 4, 5), (4, 6, 1),
    ]
    WEIGHTS = {0: 0.5, 1: 1.25, 2: 0.75, 3: 2.0, 4: 1.0, 5: 0.25, 6: 1.5}

    def _rank(self, a, target, min_sim=None, weights=WEIGHTS):
        m = build_matrix(as_ratings(self.TRIPLES))
        wv = WeightVector(target, weights, max_feature_count=10)
        got = rank_candidates(a, target, m, weights=wv, min_sim=min_sim)
        expected = naive_rank(by_user(self.TRIPLES), a, target, weights, min_sim)
        assert _bits(_as_rows(got)) == _bits(expected)
        return [s.user_id for s in got]

    def test_zero_overlap_candidate_dropped(self):
        assert self._rank(1, 5) == [3]

    def test_active_user_who_rated_the_target(self):
        assert self._rank(1, 0) == [3]
        assert self._rank(3, 0) == [1]

    def test_min_sim_filters_after_weighting(self):
        assert self._rank(1, 0, min_sim=1.0) == []
        assert self._rank(3, 0, min_sim=-1.0) == [1]

    def test_target_without_other_raters(self):
        assert self._rank(4, 4) == []
        assert self._rank(1, 99) == []

    def test_only_items_shared_with_a_candidate_need_a_weight(self):
        # Item 6 is co-rated with user 4 only, who is no candidate for target 5.
        assert self._rank(1, 5, weights={0: 0.5, 1: 1.25, 2: 0.75}) == [3]
        with pytest.raises(KeyError, match="no weight for item 1 relative to target 5"):
            self._rank(1, 5, weights={0: 0.5, 2: 0.75})


class TestGatherReadOnly:
    def test_read_only_and_memoised_per_matrix_and_user(self):
        cf._scans.clear()
        m = build_matrix(as_ratings(TestWeightedRankingCases.TRIPLES))
        twin = build_matrix(as_ratings(TestWeightedRankingCases.TRIPLES))
        with records_built() as built:
            g = cf._gather(m, cf._scan(m, 0))
            assert g.slot.dtype == np.uint16 and g.users.dtype == np.int64
            assert g.vals.dtype == np.int8
            for arr in (g.slot, g.users, g.vals):
                assert not arr.flags.writeable
            with pytest.raises(ValueError):
                g.users[0] = 1
            with pytest.raises(ValueError):
                g.slot[0] = 1
            with pytest.raises(ValueError):
                g.vals[0] = 1
            wv = WeightVector(0, TestWeightedRankingCases.WEIGHTS, max_feature_count=10)
            rank_candidates(1, 0, m, weights=wv)
            rank_candidates(1, 0, m)
            pearson(1, 3, m)
            weighted_pearson(1, 3, 0, m, wv)
            assert cf._scan(m, 0) is g and cf._gather(m, cf._scan(m, 0)) is g
            assert built.call_count == 1
            assert cf._gather(twin, cf._scan(twin, 0)) is not g
            assert cf._gather(m, cf._scan(m, 1)) is not g
            assert built.call_count == 3
        # Each live matrix holds one record, its last.
        assert len(cf._scans) == 2
        assert (cf._scans[m].uix, cf._scans[twin].uix) == (1, 0)

    def test_vals_are_the_matrix_ratings_of_each_entry(self):
        m = build_matrix(as_ratings(TestWeightedRankingCases.TRIPLES))
        for aix in range(len(m.users)):
            g = cf._gather(m, cf._scan(m, aix))
            items_a, _ = g.row
            entries = zip(g.users.tolist(), items_a[g.slot].tolist(), g.vals.tolist())
            for u, i, v in entries:
                assert m.rating(m.users[u], m.items[i]) == v
            assert g.vals.size == sum(len(m.raters_of(m.items[i])) for i in items_a.tolist())

    @pytest.mark.parametrize("method", ["pc", "wpc", "pair"])
    def test_a_freed_matrix_takes_its_record_with_it(self, method):
        m = build_matrix(as_ratings(TestWeightedRankingCases.TRIPLES))
        wv = WeightVector(5, TestWeightedRankingCases.WEIGHTS, max_feature_count=10)
        calls = {
            "pc": partial(rank_candidates, 1, 5, m),
            "wpc": partial(rank_candidates, 1, 5, m, weights=wv),
            "pair": partial(weighted_pearson, 1, 3, 5, m, wv),
        }
        calls[method]()
        assert cf._scans[m].uix == m._user_index(1)
        freed = weakref.ref(m)
        del m, calls
        assert freed() is None


class TestScanRule:
    """Rent or buy: a user's calls scan the candidates' rows while the rows scanned so
    far hold fewer entries than its item columns, then build one gather."""

    def test_a_cold_pc_ranking_scans_rows_and_builds_no_gather(self):
        # User 1's item columns hold 9 entries, target 5's raters' rows 6.
        triples = TestWeightedRankingCases.TRIPLES
        m = build_matrix(as_ratings(triples))
        cf._scans.clear()
        with mock.patch.object(cf, "_gather", side_effect=AssertionError("gather built")):
            ranked = rank_candidates(1, 5, m)
        assert _bits(_as_rows(ranked)) == _bits(naive_rank(by_user(triples), 1, 5))
        scan = cf._scan(m, m._user_index(1))
        assert (scan.rows, scan.users) == (6, None)

    def test_rows_are_scanned_while_cumulative_rows_are_below_columns(self):
        # User 1's item columns hold 9 entries. Target 5's raters' rows hold 6, and
        # user 2's row 2.
        m = build_matrix(as_ratings(TestWeightedRankingCases.TRIPLES))
        wv = WeightVector(5, TestWeightedRankingCases.WEIGHTS, max_feature_count=10)
        expected = naive_rank(by_user(TestWeightedRankingCases.TRIPLES), 1, 5, wv.weights)
        cf._scans.clear()
        steps = [
            (partial(rank_candidates, 1, 5, m, weights=wv), 6, True),
            (partial(weighted_pearson, 1, 2, 5, m, wv), 8, True),
            (partial(rank_candidates, 1, 5, m, weights=wv), 14, False),
            (partial(rank_candidates, 1, 5, m, weights=wv), 14, False),
            (partial(pearson, 1, 3, m), 14, False),
        ]
        gathers = []
        with records_built() as built:
            for fn, rows, on_rows in steps:
                with mock.patch.object(cf, "_rater_rows", wraps=cf._rater_rows) as scanned:
                    got = fn()
                if isinstance(got, cf.Ranking):
                    assert _bits(_as_rows(got)) == _bits(expected)
                scan = cf._scan(m, m._user_index(1))
                assert (scanned.call_count, scan.rows) == (int(on_rows), rows)
                assert (scan.users is None) == on_rows
                gathers.append(scan.users)
        assert all(g is gathers[2] for g in gathers[2:])  # one gather, built once
        assert built.call_count == 1

    def test_a_pair_call_adds_to_the_same_record(self):
        # User 4's row holds 3 entries: with target 5's 6 they reach the 9 columns.
        m = build_matrix(as_ratings(TestWeightedRankingCases.TRIPLES))
        wv = WeightVector(5, TestWeightedRankingCases.WEIGHTS, max_feature_count=10)
        cf._scans.clear()
        with records_built() as built:
            pearson(1, 4, m)
            assert cf._scan(m, m._user_index(1)).rows == 3
            with mock.patch.object(cf, "_rater_rows", side_effect=AssertionError("rows scanned")):
                ranked = rank_candidates(1, 5, m, weights=wv)
            assert [s.user_id for s in ranked] == [3]
            assert cf._scan(m, m._user_index(1)).rows == 9
        assert built.call_count == 1


@pytest.mark.parametrize("min_sim", [float("nan"), float("inf"), -float("inf"), "0.1", True])
def test_rankings_reject_a_min_sim_that_is_no_finite_number(min_sim):
    # NaN would drop every candidate, and so make every prediction fall back.
    m = build_matrix(as_ratings(TestWeightedRankingCases.TRIPLES))
    wv = WeightVector(5, TestWeightedRankingCases.WEIGHTS, max_feature_count=10)
    calls = [
        partial(rank_candidates, 1, 5, m),
        partial(rank_candidates, 1, 5, m, weights=wv),
        partial(rank_candidates, 1, 99, m),  # a target without raters
        partial(select_neighbors, 1, 5, m, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="min_sim must be a finite number"):
            call(min_sim=min_sim)


# -- the cold scans: rater rows, cold gather, warm gather -----------------------


def _three_array_scores(m, aix, cand, weights):
    """(raw, cf, value, overlap) per user from the three-array gather (item
    position, item-major position and rater per entry) and its candidate-only
    sweep, as they were before the raters-only gather."""
    items_a, vals_a = m._user_row(aix)
    starts = m._iptr[items_a]
    counts = m._iptr[items_a + 1] - starts
    first = np.cumsum(counts) - counts
    pos = np.arange(counts.sum()) - np.repeat(first - starts, counts)
    itempos = np.repeat(np.arange(items_a.size), counts)
    is_cand = np.zeros(len(m.users), dtype=bool)
    is_cand[cand] = True
    kept = np.flatnonzero(is_cand[m._iusers[pos]])
    itempos, pos, users = itempos[kept], pos[kept], m._iusers[pos[kept]]
    dev_a = (vals_a - m._umeans[aix])[itempos]
    dev_u = m._ivals[pos] - m._umeans[users]
    w = weights.row([m.items[j] for j in items_a.tolist()])[itempos]
    x = w * dev_a
    y = w * dev_u
    n = len(m.users)
    num = np.bincount(users, weights=x * y, minlength=n)
    den_a = np.bincount(users, weights=x * x, minlength=n)
    den_u = np.bincount(users, weights=y * y, minlength=n)
    overlap = np.bincount(users, minlength=n)
    denom = den_a * den_u
    raw = np.zeros(n)
    mask = denom > 0
    raw[mask] = num[mask] / np.sqrt(denom[mask])
    np.clip(raw, -1.0, 1.0, out=raw)
    damping = np.minimum(overlap, 50) / 50
    return raw, damping, raw * damping, overlap


SCANS = ("rows", "cold gather", "warm gather")


def _entries_on(scan):
    """A stand-in for ``cf._candidate_entries`` that takes one scan; a warm
    user must take its gather."""
    chosen, rater_rows = cf._candidate_entries, cf._rater_rows

    def entries(matrix, aix, cand):
        if scan == "rows":
            return rater_rows(matrix, cf._scan(matrix, aix), cand)
        if scan == "cold gather":
            assert cf._scan(matrix, aix).users is None
            cf._gather(matrix, cf._scan(matrix, aix))
        with mock.patch.object(cf, "_rater_rows", side_effect=AssertionError("rows scanned")):
            return chosen(matrix, aix, cand)

    return entries


def _ranked_on(scan, m, a, target, wv, min_sim=None):
    cf._scans.clear()
    if scan == "warm gather":
        cf._gather(m, cf._scan(m, m._user_index(a)))
    with mock.patch.object(cf, "_candidate_entries", _entries_on(scan)):
        return _bits(_as_rows(rank_candidates(a, target, m, weights=wv, min_sim=min_sim)))


def _check_every_scan(triples, a, target, weights, min_sim=None):
    """Every scan ranks with the oracle's bits and scores every candidate with
    the three-array gather's bits; repeated from cold, a ranking scans rows
    until they add up to the user's columns, then one gather. ``weights=None``
    checks pc rankings. Returns the oracle's ranking."""
    m = build_matrix(as_ratings(triples))
    wv = None if weights is None else WeightVector(target, weights, max_feature_count=10)
    expected = _bits(naive_rank(by_user(triples), a, target, weights, min_sim))
    for scan in SCANS:
        assert _ranked_on(scan, m, a, target, wv, min_sim) == expected, scan
    aix = m._user_index(a)
    table = by_user(triples)
    raters = [u for u in sorted(table) if u != a and target in table[u]]
    cand = np.array([m._user_index(u) for u in raters], dtype=np.int64)
    if cand.size == 0:  # rank_candidates returns before any scan
        return expected
    # A weight of 1.0 leaves every deviation's bits as they are.
    old = _three_array_scores(m, aix, cand, wv or uniform_weights(m, target))
    cf._scans.clear()
    rater_rows = cf._rater_rows(m, cf._scan(m, aix), cand)
    cf._gather(m, cf._scan(m, aix))
    for entries in (rater_rows, cf._candidate_entries(m, aix, cand)):
        new = cf._sweep(m, entries, wv)
        for got, want in zip(new, old):
            assert got[cand].tobytes() == want[cand].tobytes()

    items_a, _ = m._user_row(aix)
    columns = int((m._iptr[items_a + 1] - m._iptr[items_a]).sum())
    rows = int((m._uptr[cand + 1] - m._uptr[cand]).sum())
    # The same ranking repeated from cold scans rows while n * rows < columns,
    # then builds one gather and reads it.
    cf._scans.clear()
    n_rows = (columns - 1) // rows
    gathers = []
    with records_built() as built:
        with mock.patch.object(cf, "_rater_rows", wraps=cf._rater_rows) as scanned:
            for n in range(1, n_rows + 3):
                ranked = rank_candidates(a, target, m, weights=wv, min_sim=min_sim)
                assert _bits(_as_rows(ranked)) == expected
                assert scanned.call_count == min(n, n_rows)
                gathers.append(cf._scan(m, aix).users)
        assert all(g is None for g in gathers[:n_rows])
        assert gathers[-2] is not None and gathers[-1] is gathers[-2]
        assert cf._scan(m, aix).rows == (n_rows + 1) * rows
    assert built.call_count == 1
    return expected


@settings(max_examples=300, deadline=None)
@given(
    rating_triples(max_users=7, max_items=6),
    st.integers(1, 7),
    st.integers(101, 107),
    st.none() | st.floats(-1.0, 1.0),
    st.data(),
)
def test_every_scan_has_the_oracle_and_three_array_bits(triples, a, target, min_sim, data):
    """Of either method: a draw of no weights checks a pc ranking."""
    assume(a in by_user(triples))
    weights = None
    if data.draw(st.booleans()):
        weights = {i: data.draw(st.floats(0.01, 3.0)) for i in {i for _, i, _ in triples}}
    _check_every_scan(triples, a, target, weights, min_sim)


class TestColdScanCases:
    """Cases each scan must get right, against the oracle and the three-array gather."""

    WEIGHTS = {i: 0.25 + 0.125 * i for i in range(10)}

    def test_exact_ties_keep_user_order(self):
        # Users 2, 3 and 4 rate exactly alike, so they tie; 5 differs.
        triples = [(1, 0, 5), (1, 1, 1), (1, 2, 3)]
        triples += [(u, i, v) for u in (4, 2, 3) for i, v in ((0, 4), (1, 2), (2, 3), (9, 5))]
        triples += [(5, 0, 1), (5, 1, 5), (5, 9, 2)]
        ranked = _check_every_scan(triples, 1, 9, self.WEIGHTS)
        assert [r[0] for r in ranked] == [2, 3, 4, 5]
        assert ranked[0][1:] == ranked[1][1:] == ranked[2][1:]

    def test_min_sim(self):
        triples = [(1, 0, 5), (1, 1, 1), (1, 2, 3)]
        triples += [(2, 0, 4), (2, 1, 2), (2, 9, 5), (3, 0, 1), (3, 1, 5), (3, 9, 2)]
        assert [r[0] for r in _check_every_scan(triples, 1, 9, self.WEIGHTS)] == [2, 3]
        assert [r[0] for r in _check_every_scan(triples, 1, 9, self.WEIGHTS, 0.0)] == [2]
        assert _check_every_scan(triples, 1, 9, self.WEIGHTS, 1.5) == []

    def test_rater_with_one_co_rated_item(self):
        triples = [(1, 0, 5), (1, 1, 1), (1, 2, 3), (2, 1, 4), (2, 9, 2)]
        triples += [(3, i, 1 + i % 5) for i in (0, 1, 2, 9)]
        ranked = _check_every_scan(triples, 1, 9, self.WEIGHTS)
        assert {r[0]: r[4] for r in ranked} == {2: 1, 3: 3}

    def test_user_whose_items_each_have_one_rater(self):
        # Each of user 1's items has one rater: user 1 alone, then one other user each.
        alone = [(1, 0, 5), (1, 1, 2), (2, 9, 4), (3, 9, 1), (2, 5, 3)]
        assert _check_every_scan(alone, 1, 9, self.WEIGHTS) == []
        paired = [(1, i, 1 + i) for i in range(4)] + [(10 + i, i, 5 - i) for i in range(4)]
        paired += [(10 + i, 9, 1 + i) for i in range(4)]
        ranked = _check_every_scan(paired, 1, 9, self.WEIGHTS)
        assert sorted(r[0] for r in ranked) == [10, 11, 12, 13]
        assert {r[4] for r in ranked} == {1}

    @pytest.mark.parametrize("n_items", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1])
    def test_item_slot_dtype_at_the_uint16_bound(self, n_items):
        # User 0 rates every item; users 1 and 2 rate a few of them and the target, the
        # last item, whose index + 1 wraps in uint16 at 65,536 items.
        items = np.arange(n_items)
        users = np.concatenate([np.zeros(n_items, dtype=np.int64), [1, 1, 1, 2, 2, 2]])
        items = np.concatenate([items, [0, n_items - 1, 5, 3, n_items - 1, 6]])
        values = np.concatenate([1 + items[:n_items] % 5, [5, 1, 4, 2, 2, 3]])
        m = RatingMatrix(RatingColumns(users, items, values, np.zeros(users.size, dtype=np.int64)))
        assert m._uitems.dtype == index_dtype(n_items) and m._iusers.dtype == np.uint16
        cf._scans.clear()
        g = cf._gather(m, cf._scan(m, 0))
        assert g.slot.dtype == (np.uint16 if n_items <= 1 << 16 else np.intp)
        assert g.slot[-1] == n_items - 1
        triples = list(zip(users.tolist(), items.tolist(), values.tolist()))
        weights = {i: 0.5 + (i % 7) / 4 for i in range(n_items)}
        assert len(_check_every_scan(triples, 0, n_items - 1, weights)) == 2

    @pytest.mark.parametrize("n_users", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1])
    def test_rater_index_dtype_at_the_uint16_bound(self, n_users):
        # User 0 rates items 0-2; user 1 and the last user, whose index + 1 wraps in
        # uint16 at 65,536 users, rate them and the target 9; the rest rate item 8.
        last = n_users - 1
        triples = [(0, 0, 5), (0, 1, 1), (0, 2, 3), (1, 0, 4), (1, 2, 2), (1, 9, 5)]
        triples += [(last, 0, 2), (last, 1, 4), (last, 2, 3), (last, 9, 1)]
        triples += [(u, 8, 1 + u % 5) for u in range(2, last)]
        m = build_matrix(as_ratings(triples))
        assert m._iusers.dtype == index_dtype(n_users) and m._uitems.dtype == np.uint16
        cf._scans.clear()
        g = cf._gather(m, cf._scan(m, 0))
        assert g.users.dtype == np.intp and g.users[-1] == last
        # The accessors widen, so no scan's ``+ 1`` can wrap.
        raters, values = m._item_col(m._item_index(9))
        assert raters.dtype == np.intp and raters.tolist() == [1, last]
        assert values.dtype == np.float64
        assert [a.dtype for a in m._user_row(last)] == [np.intp, np.float64]

        ranked = _check_every_scan(triples, 0, 9, self.WEIGHTS)
        assert sorted(r[0] for r in ranked) == [1, last]
        table = by_user(triples)
        cf._scans.clear()
        assert _bits(_as_rows(rank_candidates(0, 9, m))) == _bits(naive_rank(table, 0, 9))
        for a, u in ((0, last), (last, 0), (last, 1)):
            cf._scans.clear()
            (raw, overlap), (want, want_overlap) = pearson(a, u, m), naive_pearson(table, a, u)
            assert (raw.hex(), overlap) == (want.hex(), want_overlap)


@settings(max_examples=200, deadline=None)
@given(rating_triples(max_users=6, max_items=6), st.data())
def test_pair_correlations_on_either_scan_match_the_three_array_gather(triples, data):
    """A cold pair scans the smaller side; a warm one reads the gather alone."""
    m = build_matrix(as_ratings(triples))
    a = data.draw(st.sampled_from(m.users))
    u = data.draw(st.sampled_from(m.users))
    wv = WeightVector(m.items[0], {i: data.draw(st.floats(0.01, 3.0)) for i in m.items}, 10)
    aix, uix = m._user_index(a), m._user_index(u)
    for warm in (False, True):
        cf._scans.clear()
        guard = contextlib.nullcontext()
        if warm:
            cf._gather(m, cf._scan(m, aix))
            guard = mock.patch.object(cf, "_rater_rows", side_effect=AssertionError("rows scanned"))
        with guard:
            got = [pearson(a, u, m), weighted_pearson(a, u, m.items[0], m, wv)]
        for weights, (raw_got, overlap_got) in zip((uniform_weights(m, m.items[0]), wv), got):
            raw, _, _, overlap = _three_array_scores(m, aix, np.array([uix]), weights)
            assert (raw_got.hex(), overlap_got) == (float(raw[uix]).hex(), int(overlap[uix]))


@settings(max_examples=300, deadline=None)
@given(rating_triples(max_users=6, max_items=6), st.data())
def test_pair_correlations_have_the_oracle_bits(triples, data):
    m = build_matrix(as_ratings(triples))
    table = by_user(triples)
    a = data.draw(st.sampled_from(m.users))
    u = data.draw(st.sampled_from(m.users))
    weights = {i: data.draw(st.floats(0.01, 3.0)) for i in m.items}
    wv = WeightVector(m.items[0], weights, max_feature_count=10)
    for got, expected in [
        (pearson(a, u, m), naive_pearson(table, a, u)),
        (weighted_pearson(a, u, m.items[0], m, wv), naive_pearson(table, a, u, weights)),
    ]:
        assert type(got[0]) is float and type(got[1]) is int
        assert (got[0].hex(), got[1]) == (expected[0].hex(), expected[1])


# -- the array-backed ranking ---------------------------------------------------


class TestRanking:
    """``rank_candidates`` returns a read-only sequence of ``SimilarityScore``s."""

    @pytest.fixture
    def triples(self):
        rng = np.random.default_rng(7)
        triples = [(u, 0, int(rng.integers(1, 6))) for u in range(1, 9)]
        return triples + [
            (u, int(i), int(rng.integers(1, 6)))
            for u in range(1, 9)
            for i in rng.choice(np.arange(1, 10), size=5, replace=False)
        ]

    @pytest.fixture
    def matrix(self, triples):
        return build_matrix(as_ratings(triples))

    @pytest.fixture
    def ranked(self, matrix):
        ranked = rank_candidates(1, 0, matrix)
        assert len(ranked) == 7
        return ranked

    def test_len_and_iteration(self, triples, ranked):
        scores = list(ranked)
        assert len(scores) == len(ranked) == 7
        assert all(isinstance(s, SimilarityScore) for s in scores)
        assert scores == [ranked[i] for i in range(7)]
        expected = naive_rank(by_user(triples), 1, 0)
        assert [s.user_id for s in scores] == [e[0] for e in expected]

    def test_positive_and_negative_index(self, ranked):
        scores = list(ranked)
        assert ranked[2] == scores[2]
        assert ranked[-1] == scores[-1]
        assert ranked[-7] == scores[0]
        for i in (7, -8, 100):
            with pytest.raises(IndexError):
                ranked[i]

    def test_head_past_the_end(self, ranked):
        head = ranked[:50]
        assert len(head) == 7
        assert head == ranked
        assert ranked[:3] == list(ranked)[:3]
        assert ranked[:3]._sums is ranked._sums

    @pytest.mark.parametrize(
        "window",
        [slice(2, 5), slice(1, None), slice(None, None, 2), slice(None, None, -1),
         slice(5, 1, -2), slice(4, 2), slice(-3, None)],
    )
    def test_other_slices(self, matrix, ranked, window):
        part = ranked[window]
        assert part == list(ranked)[window]
        assert len(part) == len(list(ranked)[window])
        for denominator in ("abs", "signed"):
            got = predict(1, 0, NeighborSet(0, 1, part), matrix, denominator)
            assert got == predict(1, 0, NeighborSet(0, 1, tuple(part)), matrix, denominator)

    def test_equality(self, matrix, ranked):
        scores = list(ranked)
        assert ranked == scores and scores == ranked
        assert ranked == tuple(scores) and tuple(scores) == ranked
        assert ranked == rank_candidates(1, 0, matrix)
        assert ranked != scores[:-1]
        assert ranked != scores[::-1]
        assert ranked != "not a ranking"
        assert ranked[:0] == () and ranked[:0] == []
        assert EMPTY_RANKING == ()
        assert rank_candidates(1, 999, matrix) == ()

    def test_not_hashable(self, ranked):
        with pytest.raises(TypeError):
            hash(ranked)
        with pytest.raises(TypeError):
            hash(ranked[:2])

    @pytest.mark.parametrize("window", [slice(None), slice(None, 3), slice(None, None, 2)])
    def test_arrays_read_only(self, ranked, window):
        part = ranked[window]
        for arr in (*part._cols, part._sums):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            part._cols.value[0] = 0.0
        with pytest.raises(ValueError):
            part._sums[0, 1] = 0.0


def _outcome(fn):
    """The call's result, or the message of the ValueError it raised."""
    try:
        return fn()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=150, deadline=None)
@given(
    rating_triples(max_users=7, max_items=6, min_ratings=2),
    st.sampled_from(["abs", "signed"]),
    st.none() | st.floats(-1.0, 1.0),
    st.data(),
)
def test_ranking_and_lookup_predictions_agree(triples, denominator, min_sim, data):
    """A ranking's own running sums give the bits of the per-neighbour lookups,
    and a ranking handed over with another matrix or target is looked up."""
    m = build_matrix(as_ratings(triples))
    a = data.draw(st.sampled_from(m.users))
    target = data.draw(st.sampled_from(m.items))
    other = data.draw(st.sampled_from(m.items))
    wv = None
    if data.draw(st.booleans()):
        weight = st.floats(0.05, 2.0)
        wv = WeightVector(target, {i: data.draw(weight) for i in m.items}, max_feature_count=10)
    ranked = rank_candidates(a, target, m, weights=wv, min_sim=min_sim)
    rebuilt = build_matrix(as_ratings(triples))  # same ids, another object

    def run(matrix, item, neighbors):
        ns = NeighborSet(target_item=item, active_user=a, neighbors=neighbors)
        return _outcome(lambda: predict(a, item, ns, matrix, denominator=denominator))

    for k in range(1, len(ranked) + 2):
        head = ranked[:k]
        n = len(head)
        missing = [s.user_id for s in head if m.rating(s.user_id, other) is None]
        dropped = None
        if n:
            gone = (head[-1].user_id, target)
            dropped = build_matrix(as_ratings([t for t in triples if t[:2] != gone]))
        with mock.patch.object(
            RatingMatrix, "rating", autospec=True, side_effect=RatingMatrix.rating
        ) as lookups:
            fast = run(m, target, head)
            assert lookups.call_count == 0
            assert fast == run(m, target, tuple(head))
            assert isinstance(fast, cf.Prediction) and fast.n_neighbors == n

            lookups.reset_mock()
            assert run(rebuilt, target, head) == fast
            assert lookups.call_count == n

            lookups.reset_mock()
            moved = run(m, other, head)
            assert (lookups.call_count > 0) == (other != target and n > 0)
            assert moved == run(m, other, tuple(head))
            if missing:
                assert moved == (
                    f"ValueError: neighbor {missing[0]!r} has no training rating "
                    f"for item {other!r}"
                )

            if dropped is not None:
                expected = (
                    f"ValueError: neighbor {head[-1].user_id!r} has no training rating "
                    f"for item {target!r}"
                )
                assert run(dropped, target, head) == expected
                assert run(dropped, target, tuple(head)) == expected
