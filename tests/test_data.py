"""Rating and matrix construction: validation, means, rater lists, invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contentcf.data import MovieProfile, ProfileSource, Rating, RatingColumns, build_matrix
from contentcf.ingest import parse_ratings
from conftest import as_ratings, rating_triples


class TestRating:
    def test_valid_values(self):
        for v in (1, 2, 3, 4, 5):
            assert Rating(1, 2, v).value == v

    @pytest.mark.parametrize("bad", [0, 6, -1, 100])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match="out of range"):
            Rating(1, 2, bad)

    @pytest.mark.parametrize("bad", [2.5, "4", True])
    def test_non_integer_rejected(self, bad):
        with pytest.raises(ValueError):
            Rating(1, 2, bad)


class TestBuildMatrix:
    def test_user_mean(self):
        m = build_matrix(as_ratings([(1, 1, 4), (1, 2, 2)]))
        assert m.user_means[1] == pytest.approx(3.0, abs=1e-12)

    def test_item_raters(self):
        m = build_matrix(as_ratings([(1, 1, 4), (2, 1, 5)]))
        assert m.item_raters[1] == {1, 2}

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            build_matrix(as_ratings([(1, 1, 4), (1, 1, 5)]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_matrix([])

    def test_lookup(self, toy_ratings):
        m = build_matrix(toy_ratings)
        assert m.rating(1, 10) == 4.0
        assert m.rating(1, 30) is None
        assert m.rating(99, 10) is None
        assert m.ratings_of(3) == {10: 1.0, 20: 5.0, 30: 3.0}
        assert m.raters_of(20) == {1, 3}
        assert m.mean_of(2) == 4.0

    def test_unknown_ids_raise(self, toy_ratings):
        m = build_matrix(toy_ratings)
        with pytest.raises(KeyError, match="99"):
            m.ratings_of(99)
        with pytest.raises(KeyError, match="99"):
            m.raters_of(99)


@settings(max_examples=200)
@given(rating_triples())
def test_matrix_invariants(triples):
    m = build_matrix(as_ratings(triples))
    values_by_user = {}
    for u, i, v in triples:
        values_by_user.setdefault(u, []).append(v)
    for u, vals in values_by_user.items():
        assert min(vals) <= m.user_means[u] <= max(vals)
        assert m.user_means[u] == pytest.approx(sum(vals) / len(vals), abs=1e-12)
    assert sum(len(r) for r in m.item_raters.values()) == len(triples)
    assert m.n_ratings == len(triples)


@settings(max_examples=100)
@given(rating_triples())
def test_matrix_input_order_irrelevant(triples):
    forward = build_matrix(as_ratings(triples))
    backward = build_matrix(as_ratings(triples[::-1]))
    assert forward.user_means == backward.user_means
    assert forward.item_raters == backward.item_raters


_MATRIX_ARRAYS = ("_uptr", "_uitems", "_uvals", "_iptr", "_iusers", "_ivals", "_umeans")


@settings(max_examples=150)
@given(rating_triples(max_ratings=50), st.data())
def test_masked_submatrix_equals_a_fresh_build(triples, data):
    """A masked sub-matrix is, to the bit, the matrix built from the kept ratings."""
    full = build_matrix(as_ratings(triples))
    flags = st.lists(st.booleans(), min_size=len(triples), max_size=len(triples))
    keep = np.asarray(data.draw(flags), dtype=bool)
    sub = full._masked(keep)
    if not keep.any():
        assert (sub.users, sub.items, sub.n_ratings) == ((), (), 0)
        assert not sub.has_user(triples[0][0])
        return
    # Entries are in (user, item) order, as the sorted triples are.
    fresh = build_matrix(as_ratings([t for t, k in zip(triples, keep) if k]))
    assert sub.users == fresh.users
    assert sub.items == fresh.items
    assert sub.n_ratings == fresh.n_ratings
    for name in _MATRIX_ARRAYS:
        a, b = getattr(sub, name), getattr(fresh, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestRatingColumns:
    RATINGS = [Rating(1, 10, 4, 7), Rating(1, 20, 2, 8), Rating(2, 10, 5, 9)]

    def columns(self) -> RatingColumns:
        return RatingColumns([1, 1, 2], [10, 20, 10], [4, 2, 5], [7, 8, 9])

    def test_len_and_iteration(self):
        cols = self.columns()
        assert len(cols) == 3
        assert list(cols) == self.RATINGS
        assert all(type(r.user_id) is int and type(r.value) is int for r in cols)

    def test_indexing(self):
        cols = self.columns()
        assert cols[0] == self.RATINGS[0]
        assert cols[-1] == self.RATINGS[-1]
        assert cols[-3] == self.RATINGS[0]
        for bad in (3, -4, 100):
            with pytest.raises(IndexError):
                cols[bad]

    @pytest.mark.parametrize(
        "index", [slice(None), slice(1, None), slice(0, 2), slice(None, None, -1),
                  slice(5, 9), slice(-2, None), slice(0, 3, 2)]
    )
    def test_slices_are_views(self, index):
        cols = self.columns()
        view = cols[index]
        assert isinstance(view, RatingColumns)
        assert view == self.RATINGS[index]
        if len(view):
            assert np.shares_memory(view.user_ids, cols.user_ids)
        assert not view.values.flags.writeable

    def test_equality(self):
        cols = self.columns()
        assert cols == self.RATINGS
        assert cols == tuple(self.RATINGS)
        assert cols == self.columns()
        assert cols != self.RATINGS[:2]
        assert cols != self.RATINGS[:2] + [Rating(2, 10, 4, 9)]
        assert cols != "abc"
        assert cols[3:] == [] and cols[3:] == ()
        assert RatingColumns.from_ratings([]) == []

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(self.columns())

    def test_arrays_are_read_only(self):
        cols = self.columns()
        for arr in (cols.user_ids, cols.item_ids, cols.values, cols.timestamps):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 3

    def test_bad_columns_rejected(self):
        with pytest.raises(ValueError, match=r"out of range: 9 for \(2, 10\)"):
            RatingColumns([1, 2], [10, 10], [3, 9], [0, 0])
        with pytest.raises(ValueError, match="integers"):
            RatingColumns([1], [10], [3.0], [0])
        with pytest.raises(ValueError, match="one length"):
            RatingColumns([1, 2], [10], [3, 4], [0, 0])

    def test_from_ratings_keeps_ids_as_objects(self):
        rs = as_ratings([("b", 2, 3), ("a", 10**30, 5)])
        cols = RatingColumns.from_ratings(iter(rs))
        assert cols == rs
        assert cols.user_ids.dtype == object and cols.values.dtype == np.int64


def _matrix_bits(m):
    return {name: (getattr(m, name).dtype, getattr(m, name).tobytes()) for name in _MATRIX_ARRAYS}


@settings(max_examples=100, deadline=None)
@given(rating_triples(max_users=12, max_items=12, max_ratings=60), st.randoms())
def test_columns_and_ratings_build_the_same_matrix(tmp_path_factory, triples, random):
    """Parsed columns, their Ratings, and string-id Ratings encode to the same bits."""
    random.shuffle(triples)
    path = tmp_path_factory.mktemp("cols") / "ratings.dat"
    path.write_text("".join(f"{u}::{i}::{v}::{n}\n" for n, (u, i, v) in enumerate(triples)))
    cols = parse_ratings(path)
    from_cols = build_matrix(cols)
    from_list = build_matrix(list(cols))
    # Zero-padded names sort as the numbers do.
    named = build_matrix(as_ratings([(f"u{u:03d}", f"m{i:04d}", v) for u, i, v in triples]))
    assert from_cols.users == from_list.users == tuple(sorted({u for u, _, _ in triples}))
    assert from_cols.items == from_list.items
    assert named.users == tuple(f"u{u:03d}" for u in from_cols.users)
    assert named.items == tuple(f"m{i:04d}" for i in from_cols.items)
    assert _matrix_bits(from_cols) == _matrix_bits(from_list) == _matrix_bits(named)
    u_idx, i_idx, vals = from_cols._entries()
    entries = [(from_cols.users[u], from_cols.items[i], v) for u, i, v in zip(u_idx, i_idx, vals)]
    assert entries == [(u, i, float(v)) for u, i, v in sorted(triples)]


class TestMovieProfile:
    def test_genres_required(self):
        with pytest.raises(ValueError, match="no genres"):
            MovieProfile(item_id=1, title="x", genres=frozenset())

    def test_override_may_lack_genres(self):
        p = MovieProfile(
            item_id=1, title="x", genres=frozenset(), source=ProfileSource.OVERRIDE
        )
        assert p.genres == frozenset()

    def test_too_many_genres_rejected(self):
        with pytest.raises(ValueError, match="genres"):
            MovieProfile(item_id=1, title="x", genres={f"g{i}" for i in range(20)})

    def test_feature_count(self):
        p = MovieProfile(
            item_id=1, title="x", genres={"a", "b"}, directors={"d"}, actors={"x", "y"}
        )
        assert p.feature_count == 5
