"""Rating and matrix construction: validation, means, rater lists, invariants."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contentcf.cf import pearson, rank_candidates
from contentcf.data import (
    MovieProfile,
    ProfileSource,
    Rating,
    RatingColumns,
    _encode,
    build_matrix,
    index_dtype,
)
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

    @pytest.mark.parametrize("bad", [True, np.bool_(False)])
    def test_bool_ids_rejected(self, bad):
        # Else Rating(True, ...) and Rating(1, ...) would build one user.
        for name, ids in (("user", (bad, 10)), ("item", (1, bad))):
            with pytest.raises(ValueError, match=f"{name} id must be an integer or a string"):
                Rating(*ids, 4)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), None, (1,), b"1"])
    def test_ids_of_other_types_rejected(self, bad):
        for name, ids in (("user", (bad, 10)), ("item", (1, bad))):
            with pytest.raises(ValueError, match=f"{name} id must be an integer or a string"):
                Rating(*ids, 4)

    def test_integer_and_string_ids_accepted(self):
        for uid in (1, np.int16(2), np.uint64(3), "u", np.str_("v")):
            assert Rating(uid, uid, 3).user_id == uid


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

    @pytest.mark.parametrize("name", ["user", "item"])
    @pytest.mark.parametrize("other", ["a", "1"])
    def test_integer_and_string_ids_in_one_column_rejected(self, name, other):
        # numpy cannot sort them; the error names the column and one id of each type.
        pairs = [(1, 1), (other, 1)] if name == "user" else [(1, 1), (1, other)]
        message = f"{name} ids mix integers and strings, e.g. 1 and {other!r}"
        with pytest.raises(ValueError, match=message):
            build_matrix([Rating(u, i, 4) for u, i in pairs])

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


def _masked_and_fresh(triples, data):
    """(full matrix, a random sub-matrix of it, the matrix built from the kept
    ratings or None when none is kept)."""
    full = build_matrix(as_ratings(triples))
    flags = st.lists(st.booleans(), min_size=len(triples), max_size=len(triples))
    keep = np.asarray(data.draw(flags), dtype=bool)
    # Entries are in (user, item) order, as the sorted triples are.
    kept = [t for t, k in zip(triples, keep) if k]
    return full, full._masked(keep), build_matrix(as_ratings(kept)) if kept else None


def _answer(fn, *args):
    """``fn(*args)``, or the message of the KeyError it raises."""
    try:
        return fn(*args)
    except KeyError as exc:
        return f"KeyError: {exc}"


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=150)
@given(rating_triples(max_ratings=50), st.data())
def test_masked_submatrix_equals_a_fresh_build(triples, data):
    """A masked sub-matrix keeps the full matrix's index space and is, mapped
    to a fresh build's indices, that build to the bit; every id of the full
    matrix looks up as on the fresh build."""
    full, sub, fresh = _masked_and_fresh(triples, data)
    assert sub.users is full.users and sub.items is full.items
    assert sub._uindex is full._uindex and sub._iindex is full._iindex
    if fresh is None:
        assert sub.n_ratings == 0 and sub.user_means == {} and sub.item_raters == {}
        assert not any(map(sub.has_user, full.users))
        assert not any(map(sub.has_item, full.items))
        assert _answer(sub.mean_of, triples[0][0]) == f"KeyError: 'unknown user {triples[0][0]!r}'"
        return
    for u in full.users:
        for lookup in ("has_user", "mean_of", "ratings_of"):
            assert _answer(getattr(sub, lookup), u) == _answer(getattr(fresh, lookup), u)
        for i in full.items:
            assert sub.rating(u, i) == fresh.rating(u, i)
    for i in full.items:
        for lookup in ("has_item", "raters_of"):
            assert _answer(getattr(sub, lookup), i) == _answer(getattr(fresh, lookup), i)
    assert sub.user_means == fresh.user_means
    assert sub.item_raters == fresh.item_raters

    # Each full index's index in the fresh build, -1 where absent.
    u_map = np.array([fresh._uindex.get(u, -1) for u in full.users], dtype=np.int64)
    i_map = np.array([fresh._iindex.get(i, -1) for i in full.items], dtype=np.int64)
    u_counts, i_counts = np.diff(sub._uptr), np.diff(sub._iptr)
    assert _same(u_counts[u_map >= 0], np.diff(fresh._uptr)) and not u_counts[u_map < 0].any()
    assert _same(i_counts[i_map >= 0], np.diff(fresh._iptr)) and not i_counts[i_map < 0].any()
    # A masked matrix keeps its source's index space, so its index dtypes follow
    # the source's id counts; a fresh build's follow its own.
    for m, ids in ((sub, full), (fresh, fresh)):
        assert m._uitems.dtype == index_dtype(len(ids.items))
        assert m._iusers.dtype == index_dtype(len(ids.users))
    assert i_map[sub._uitems].tolist() == fresh._uitems.tolist()
    assert u_map[sub._iusers].tolist() == fresh._iusers.tolist()
    assert _same(sub._uvals, fresh._uvals) and _same(sub._ivals, fresh._ivals)
    # No matrix stores an array beyond these, so none keeps an item-major permutation.
    for m in (full, sub, fresh):
        assert {k for k, v in vars(m).items() if isinstance(v, np.ndarray)} == set(_MATRIX_ARRAYS)
    assert _same(sub._umeans[u_map >= 0], fresh._umeans)
    assert np.isnan(sub._umeans[u_map < 0]).all()


@settings(max_examples=100)
@given(rating_triples(max_ratings=50), st.data())
def test_masked_submatrix_ranks_as_a_fresh_build(triples, data):
    """Rankings, exact ties in their order included, and pair correlations
    over a sub-matrix equal those over the fresh build of its ratings."""
    full, sub, fresh = _masked_and_fresh(triples, data)
    if fresh is None:
        return
    for a in full.users:
        for target in full.items:
            assert _answer(rank_candidates, a, target, sub) == _answer(
                rank_candidates, a, target, fresh
            )
        for u in full.users:
            assert _answer(pearson, a, u, sub) == _answer(pearson, a, u, fresh)


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

    @pytest.mark.parametrize("name", ["user", "item"])
    @pytest.mark.parametrize("bad", [np.array([1.5, 2.0]), np.array([True, False])])
    def test_id_columns_other_than_integers_or_strings_rejected(self, name, bad):
        ids = {"user": [1, 2], "item": [10, 20], name: bad}
        with pytest.raises(ValueError, match=f"{name} ids must be integers or strings, got dtype"):
            RatingColumns(ids["user"], ids["item"], [3, 4], [0, 0])
        RatingColumns(np.array(["a", "b"]), np.array([10, 20], np.uint32), [3, 4], [0, 0])

    @pytest.mark.parametrize("name", ["user", "item"])
    def test_float_ids_in_an_object_column_rejected(self, name):
        # Else users 1.5 and 2.0 would be built.
        ids = {"user": [1, 2, 1], "item": [10, 20, 30], name: np.array([1.5, 2.0, 1.5], object)}
        with pytest.raises(ValueError, match=f"^{name} id must be an integer or a string, got 1.5$"):
            RatingColumns(ids["user"], ids["item"], [3, 4, 5], [0, 0, 0])

    @pytest.mark.parametrize("name", ["user", "item"])
    def test_bool_ids_in_an_object_column_rejected(self, name):
        # Else True would be an id beside 2 and 3, as Rating forbids.
        ids = {"user": [1, 2, 3], "item": [10, 20, 30], name: np.array([True, 2, 3], object)}
        with pytest.raises(ValueError, match=f"^{name} id must be an integer or a string, got True$"):
            RatingColumns(ids["user"], ids["item"], [3, 4, 5], [0, 0, 0])
        mixed = np.array([1, "a", np.int64(3)], object)  # every id Rating accepts
        assert len(RatingColumns(mixed, mixed, [3, 4, 5], [0, 0, 0])) == 3

    def test_from_ratings_keeps_ids_as_objects(self):
        rs = as_ratings([("b", 2, 3), ("a", 10**30, 5)])
        cols = RatingColumns.from_ratings(iter(rs))
        assert cols == rs
        assert cols.user_ids.dtype == object and cols.values.dtype == np.int8

    def test_from_ratings_stores_values_as_int8(self):
        rs = [Rating(1, 10, 5), Rating(2, 10, np.int64(1)), Rating(3, 10, np.uint8(3))]
        cols = RatingColumns.from_ratings(rs)
        assert cols.values.dtype == np.int8 and cols.values.tolist() == [5, 1, 3]
        assert cols == rs


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
    u_idx, i_idx, vals = from_cols._entries(np.arange(len(triples)))
    entries = [(from_cols.users[u], from_cols.items[i], v) for u, i, v in zip(u_idx, i_idx, vals)]
    assert entries == [(u, i, float(v)) for u, i, v in sorted(triples)]


@settings(max_examples=100, deadline=None)
@given(rating_triples(max_users=8, max_items=8, max_ratings=40), st.data())
def test_entries_read_users_from_the_row_pointers(triples, data):
    """``_entries`` at any indices gives the rows of the per-user repeat, on a
    matrix and on a sub-matrix whose masked-out users hold no entry."""
    m = build_matrix(as_ratings(triples))
    flags = st.lists(st.booleans(), min_size=m.n_ratings, max_size=m.n_ratings)
    for matrix in (m, m._masked(np.array(data.draw(flags), dtype=bool))):
        users = np.repeat(np.arange(len(matrix.users)), np.diff(matrix._uptr))
        every = (users, matrix._uitems, matrix._uvals)
        everywhere = matrix._entries(np.arange(matrix.n_ratings))
        assert all(np.array_equal(a, b) for a, b in zip(everywhere, every))
        size = matrix.n_ratings
        at = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        assert all(np.array_equal(a, b[at]) for a, b in zip(matrix._entries(at), every))


# -- the linear-time encode and the 16-bit item order --------------------------


def _encoded_through(ids):
    """(distinct ids, indices, whether np.unique was called) of ``_encode(ids)``."""
    with mock.patch("numpy.unique", wraps=np.unique) as unique:
        distinct, index = _encode(ids)
    return distinct, index, unique.called


def _assert_encodes_as_unique(ids):
    distinct, index = np.unique(ids, return_inverse=True)
    got_distinct, got_index, _ = _encoded_through(ids)
    assert got_distinct == tuple(distinct.tolist())
    assert all(type(x) is type(y) for x, y in zip(got_distinct, distinct.tolist()))
    assert got_index.dtype == np.int64 and got_index.tolist() == index.ravel().tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-3, 60), min_size=1, max_size=50),
    st.sampled_from([np.int64, np.int32, np.uint16]),
)
def test_encode_matches_np_unique(ids, dtype):
    if dtype is np.uint16:
        ids = [abs(x) for x in ids]
    _assert_encodes_as_unique(np.array(ids, dtype=dtype))


@pytest.mark.parametrize(
    "ids, presence",
    [
        ([0], True),
        ([0, 0, 0], True),
        ([2, 0, 2], True),  # max + 1 == len
        ([5, 1, 5, 0, 1, 5], True),
        ([3, 0, 2], False),  # max + 1 > len
        ([1], False),
        ([-1, 0, 1, 1], False),  # negative ids
        ([7, 7, 7, 8], False),
    ],
)
def test_encode_takes_the_presence_table_only_for_ids_below_the_count(ids, presence):
    arr = np.array(ids, dtype=np.int64)
    _assert_encodes_as_unique(arr)
    assert _encoded_through(arr)[2] is not presence


def test_object_ids_from_ratings_encode_through_np_unique():
    cols = RatingColumns.from_ratings(as_ratings([(2, 1, 3), (0, 1, 4), (1, 0, 5), (2, 0, 1)]))
    assert cols.user_ids.dtype == object
    distinct, index, through_unique = _encoded_through(cols.user_ids)
    assert through_unique
    assert (distinct, index.tolist()) == ((0, 1, 2), [2, 0, 1, 2])
    ints = _encoded_through(np.array(cols.user_ids.tolist(), dtype=np.int64))
    assert (ints[0], ints[1].tolist(), ints[2]) == (distinct, index.tolist(), False)


def _assert_item_major_by(m, order):
    """``m``'s item-major users and values are its user-major entries gathered through ``order``."""
    users = np.repeat(np.arange(len(m.users)), np.diff(m._uptr))
    assert m._iusers.tolist() == users[order].tolist()
    assert _same(m._ivals, m._uvals[order])


@settings(max_examples=100, deadline=None)
@given(rating_triples(max_users=12, max_items=12, max_ratings=60), st.randoms())
def test_item_order_is_the_int64_stable_order(triples, random):
    random.shuffle(triples)
    users, items, values = (np.array(c, dtype=np.int64) for c in zip(*triples))
    parsed = RatingColumns(users, items, values, np.zeros(len(triples), dtype=np.int64))
    for m in (build_matrix(as_ratings(triples)), build_matrix(parsed)):
        _assert_item_major_by(m, np.argsort(m._uitems.astype(np.int64), kind="stable"))


@pytest.mark.parametrize("n_items", [1 << 16, (1 << 16) + 1])
def test_item_order_at_the_uint16_bound(n_items):
    # Every item once, then 3,000 more ratings on random items by 40 users.
    rng = np.random.default_rng(n_items)
    users = np.concatenate([rng.integers(0, 40, n_items), rng.integers(0, 40, 3000)])
    items = np.concatenate([rng.permutation(n_items), rng.integers(0, n_items, 3000)])
    _, first = np.unique(users * n_items + items, return_index=True)
    users, items = users[np.sort(first)], items[np.sort(first)]
    cols = RatingColumns(users, items, 1 + items % 5, np.zeros(users.size, dtype=np.int64))
    with mock.patch("numpy.argsort", wraps=np.argsort) as argsort:
        m = build_matrix(cols)
    assert len(m.items) == n_items
    keys = [c.args[0].dtype for c in argsort.call_args_list]
    assert (np.dtype(np.uint16) in keys) == (n_items <= 1 << 16)
    _assert_item_major_by(m, np.argsort(m._uitems.astype(np.int64), kind="stable"))


# -- compact storage -------------------------------------------------------------

_PER_ENTRY = ("_uitems", "_uvals", "_iusers", "_ivals")


def _diagonal(n):
    """Columns where user u rates item u, for n users and n items."""
    ids = np.arange(n)
    return RatingColumns(ids, ids, 1 + ids % 5, np.zeros(n, dtype=np.int64))


@pytest.mark.parametrize(
    "rows, dtype",
    [
        # 254 ratings: ids 1-127 are int8, and below the rating count.
        ([(u, i, 1 + (u + i) % 5) for u in range(1, 128) for i in (1, 2)], np.int8),
        # 49,152 ratings: ids up to 32,767 are int16, and below the rating count.
        ([(u, i, 1 + (u * i) % 5) for u in range(1, 1 << 15, 2) for i in (32765, 32766, 32767)],
         np.int16),
    ],
    ids=["int8", "int16"],
)
def test_narrow_parsed_ids_build_the_matrix_of_int64_ids(tmp_path, rows, dtype):
    """``build_matrix`` on parsed columns whose largest id is its dtype's
    maximum: ``max() + 1`` must not wrap in the ids' own dtype."""
    path = tmp_path / "ratings.dat"
    path.write_text("".join(f"{u}::{i}::{v}::0\n" for u, i, v in rows))
    cols = parse_ratings(path)
    assert cols.user_ids.dtype == cols.item_ids.dtype == dtype
    wide = RatingColumns(cols.user_ids.astype(np.int64), cols.item_ids.astype(np.int64),
                         cols.values.astype(np.int64), cols.timestamps.astype(np.int64))
    narrow, want = build_matrix(cols), build_matrix(wide)
    assert narrow.users == want.users and narrow.items == want.items
    assert all(type(u) is int for u in narrow.users)
    assert _matrix_bits(narrow) == _matrix_bits(want)


@pytest.mark.parametrize("n_ids", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1])
def test_entry_dtypes_at_the_uint16_bound(n_ids):
    m = build_matrix(_diagonal(n_ids))
    keep = np.arange(n_ids) % 3 > 0
    for matrix in (m, m._masked(keep)):
        index = np.uint16 if n_ids <= 1 << 16 else np.intp
        assert matrix._uitems.dtype == matrix._iusers.dtype == index
        assert matrix._uvals.dtype == matrix._ivals.dtype == np.int8
        assert matrix._uptr.dtype == matrix._iptr.dtype == np.int64
    last = n_ids - 1
    assert m.raters_of(last) == frozenset({last})
    assert m.ratings_of(last) == {last: float(1 + last % 5)}
    assert m._masked(keep).rating(last, last) == (float(1 + last % 5) if last % 3 else None)


@settings(max_examples=50)
@given(rating_triples(max_ratings=50), st.data())
def test_an_entry_takes_six_bytes_below_65536_ids(triples, data):
    """On a built matrix and on a sub-matrix alike."""
    full, sub, _ = _masked_and_fresh(triples, data)
    for m in (full, sub):
        assert sum(getattr(m, name).nbytes for name in _PER_ENTRY) == 6 * m.n_ratings


@pytest.mark.parametrize("named", [False, True])
def test_accessors_return_python_floats_and_the_original_ids(named):
    user, item = (lambda u: f"u{u}", lambda i: f"m{i}") if named else (int, int)
    triples = [(1, 1, 4), (1, 2, 2), (1, 3, 5), (2, 1, 5), (2, 2, 1), (2, 3, 4), (3, 1, 3)]
    m = build_matrix(as_ratings([(user(u), item(i), v) for u, i, v in triples]))
    id_type = type(user(1))
    assert type(m.rating(user(1), item(2))) is float
    assert all(type(v) is float for v in m.ratings_of(user(1)).values())
    assert all(type(i) is id_type for i in m.ratings_of(user(1)))
    assert type(m.mean_of(user(2))) is float
    assert all(type(v) is float for v in m.user_means.values())
    assert m.raters_of(item(1)) == {user(1), user(2), user(3)}
    assert all(type(u) is id_type for u in m.raters_of(item(1)))
    ranked = rank_candidates(user(3), item(1), m)
    assert [s.user_id for s in ranked] == [user(1), user(2)]
    assert all(type(s.user_id) is id_type and type(s.raw) is float for s in ranked)


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

    @pytest.mark.parametrize("field", ["genres", "directors", "actors"])
    @pytest.mark.parametrize("labels", ["Drama", b"Drama"], ids=["str", "bytes"])
    def test_a_label_field_given_as_one_string_rejected(self, field, labels):
        # Else its characters would become labels: {'D', 'r', 'a', 'm'}.
        fields = {"genres": {"Comedy"}, field: labels}
        with pytest.raises(ValueError, match=f"movie 7 gives its {field} as one string"):
            MovieProfile(item_id=7, title="x", **fields)

    def test_feature_count(self):
        p = MovieProfile(
            item_id=1, title="x", genres={"a", "b"}, directors={"d"}, actors={"x", "y"}
        )
        assert p.feature_count == 5
