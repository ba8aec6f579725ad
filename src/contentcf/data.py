"""Core immutable data structures: ratings, the sparse rating matrix, movie profiles.

A rating set travels as ``RatingColumns``: one read-only array per field, so
a million ratings cost four arrays rather than a million objects; a parsed
file's columns are each in the narrowest integer dtype that holds them, so
a reader widens a column before arithmetic that could overflow it. The rating
matrix keeps both a user-major and an item-major view as flat numpy arrays so
that similarity sweeps over a user's items (and rater lookups for a target
item) are vectorizable. It stores them narrow: values as int8, user and item
indices in ``index_dtype`` of the id count, so an entry costs 6 bytes below
65,536 ids. A user's row and an item's column come out widened to intp and
float64; a reader widens any other index array it takes from the matrix
before it indexes with it or adds to it. The matrix is immutable after
construction and safe to share across processes or threads.
"""

from __future__ import annotations

import enum
import functools
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

UserId = int | str
ItemId = int | str

RATING_MIN = 1
RATING_MAX = 5


def index_dtype(n: int) -> type:
    """uint16 when every index is below ``n`` <= 65,536, else intp. numpy sorts and moves
    16-bit indices faster, but indexes by intp several times faster, and ``+ 1`` wraps in
    uint16: widen an index array to intp before it indexes or takes arithmetic."""
    return np.uint16 if n <= 1 << 16 else np.intp


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else the machine's count, else 1."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else (os.cpu_count() or 1)


def check_choice(name: str, value: object, allowed: tuple) -> None:
    """Reject a setting outside its allowed values, so it never falls into a default branch."""
    if value not in allowed:
        raise ValueError(f"unknown {name} {value!r}; expected one of {allowed}")


def _is_int(value) -> bool:
    """A Python or numpy integer; bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_id(name: str, i: object) -> None:
    """Reject an id that is neither an integer (``_is_int``) nor a str."""
    if not (_is_int(i) or isinstance(i, str)):
        raise ValueError(f"{name} id must be an integer or a string, got {i!r}")


@dataclass(frozen=True, slots=True)
class Rating:
    """A single user-item score on the 1-5 scale; timestamp is carried, unused."""

    user_id: UserId
    item_id: ItemId
    value: int
    timestamp: int = 0

    def __post_init__(self) -> None:
        _check_id("user", self.user_id)
        _check_id("item", self.item_id)
        if not _is_int(self.value):
            raise ValueError(f"rating value must be an integer, got {self.value!r}")
        if not RATING_MIN <= self.value <= RATING_MAX:
            raise ValueError(
                f"rating out of range: {self.value} for ({self.user_id}, {self.item_id})"
            )


class RatingColumns(Sequence):
    """Ratings as four read-only arrays: user ids, item ids, values, timestamps.

    Parsed files give each column in the narrowest of int8, int16, int32 and
    int64 that holds its values; widen one before arithmetic that could leave
    that range. The columns of arbitrary ``Rating`` objects (``from_ratings``)
    keep ids and timestamps as Python objects, and values as int8.
    Indexing builds a ``Rating``, a slice is a view of the same arrays, and
    the columns compare equal to a list or tuple of the same ratings. Not
    hashable.
    """

    __slots__ = ("_cols",)

    def __init__(self, user_ids, item_ids, values, timestamps):
        cols = tuple(np.asarray(c).view() for c in (user_ids, item_ids, values, timestamps))
        if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
            raise ValueError("rating columns must be 1-d and of one length")
        for name, c in zip(("user", "item"), cols):
            if c.dtype.kind not in "iuUO":
                raise ValueError(f"{name} ids must be integers or strings, got dtype {c.dtype}")
            for i in c.tolist() if c.dtype.kind == "O" else ():  # each id of an object column
                _check_id(name, i)
        values = cols[2]
        if values.dtype.kind not in "iu":
            raise ValueError(f"rating values must be integers, got dtype {values.dtype}")
        bad = np.flatnonzero((values < RATING_MIN) | (values > RATING_MAX))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"rating out of range: {values[i]} for ({cols[0][i]}, {cols[1][i]})"
            )
        for c in cols:
            c.flags.writeable = False
        self._cols = cols

    @classmethod
    def from_ratings(cls, ratings: Iterable[Rating]) -> RatingColumns:
        """The columns of ``Rating`` objects, in order."""
        rows = [(r.user_id, r.item_id, r.value, r.timestamp) for r in ratings]
        cols = [np.empty(len(rows), dtype=object) for _ in range(4)]
        for col, field in zip(cols, zip(*rows)):
            col[:] = field
        cols[2] = cols[2].astype(np.int8)
        return cls(*cols)

    @property
    def user_ids(self) -> np.ndarray:
        return self._cols[0]

    @property
    def item_ids(self) -> np.ndarray:
        return self._cols[1]

    @property
    def values(self) -> np.ndarray:
        return self._cols[2]

    @property
    def timestamps(self) -> np.ndarray:
        return self._cols[3]

    def __len__(self) -> int:
        return self._cols[0].size

    def __getitem__(self, index):
        if isinstance(index, slice):
            view = object.__new__(RatingColumns)
            view._cols = tuple(c[index] for c in self._cols)
            return view
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("rating index out of range")
        return Rating(*(c.item(i) for c in self._cols))

    def __iter__(self):
        for fields in zip(*(c.tolist() for c in self._cols)):
            yield Rating(*fields)

    def __eq__(self, other):
        if not isinstance(other, (RatingColumns, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"RatingColumns(<{len(self)} ratings>)"


class ProfileSource(str, enum.Enum):
    """Provenance of a movie's metadata."""

    DATASET = "dataset"
    LINKED_DATA = "linked-data"
    OVERRIDE = "override"


# ML-1M ships 18 genre labels; anything else is tolerated with a warning.
MOVIELENS_GENRES = frozenset(
    {
        "Action",
        "Adventure",
        "Animation",
        "Children's",
        "Comedy",
        "Crime",
        "Documentary",
        "Drama",
        "Fantasy",
        "Film-Noir",
        "Horror",
        "Musical",
        "Mystery",
        "Romance",
        "Sci-Fi",
        "Thriller",
        "War",
        "Western",
    }
)

MAX_GENRES_PER_MOVIE = 19


@dataclass(frozen=True)
class MovieProfile:
    """A movie's content features: genres plus (possibly empty) people metadata."""

    item_id: ItemId
    title: str
    genres: frozenset[str]
    directors: frozenset[str] = frozenset()
    actors: frozenset[str] = frozenset()
    source: ProfileSource = ProfileSource.DATASET

    def __post_init__(self) -> None:
        for name in ("genres", "directors", "actors"):
            labels = getattr(self, name)
            if isinstance(labels, (str, bytes)):  # a set of its characters is no label set
                raise ValueError(f"movie {self.item_id!r} gives its {name} as one string {labels!r}")
            object.__setattr__(self, name, frozenset(labels))
        # Override records may arrive genre-less; assembly fills genres from the
        # dataset, which always supplies at least one.
        if not self.genres and self.source is not ProfileSource.OVERRIDE:
            raise ValueError(f"movie {self.item_id!r} has no genres")
        if len(self.genres) > MAX_GENRES_PER_MOVIE:
            raise ValueError(
                f"movie {self.item_id!r} has {len(self.genres)} genres, "
                f"more than the {MAX_GENRES_PER_MOVIE}-label vocabulary allows"
            )

    @property
    def feature_count(self) -> int:
        return len(self.genres) + len(self.directors) + len(self.actors)


@dataclass(frozen=True)
class FeatureVector:
    """0/1 indicators over an explicit, shared feature universe."""

    universe: tuple[str, ...]
    components: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.universe) != len(self.components):
            raise ValueError("universe and components must have the same length")
        if any(c not in (0, 1) for c in self.components):
            raise ValueError("components must be 0 or 1")


class RatingMatrix:
    """Immutable sparse user x item store with per-user means and rater lists.

    Construction encodes ``RatingColumns`` (any other iterable of ratings is
    turned into columns first) and canonicalizes them by sorting on (user,
    item), so the same rating set yields bit-identical means regardless of
    input order.

    A masked matrix (``_masked``, a fold's training set) keeps its source's
    ``users`` and ``items``; an id left without an entry is absent by its zero count.

    Per entry it stores the values (``_uvals``, ``_ivals``) as int8 and the
    item and user indices (``_uitems``, ``_iusers``) in ``index_dtype`` of the
    item and user counts (a masked matrix's are its source's): 6 bytes an entry
    below 65,536 ids. Row pointers and means stay int64 and float64. Every
    public accessor returns Python floats and the original ids.
    """

    def __init__(self, ratings: Iterable[Rating]):
        if not isinstance(ratings, RatingColumns):
            ratings = RatingColumns.from_ratings(ratings)
        if not ratings:
            raise ValueError("cannot build a rating matrix from an empty rating set")
        for name, ids in (("user", ratings.user_ids), ("item", ratings.item_ids)):
            kinds = {isinstance(i, str): i for i in ids.tolist()} if ids.dtype.kind == "O" else {}
            if len(kinds) > 1:  # np.unique cannot sort them
                raise ValueError(
                    f"{name} ids mix integers and strings, e.g. {kinds[False]!r} and {kinds[True]!r}"
                )
        users, u_idx = _encode(ratings.user_ids)
        items, i_idx = _encode(ratings.item_ids)
        # A stable sort on one (user, item) key gives lexsort's permutation,
        # and input already grouped by user sorts in near-linear time.
        order = np.argsort(u_idx * len(items) + i_idx, kind="stable")
        u_idx = u_idx.astype(index_dtype(len(users)))[order]
        i_idx = i_idx.astype(index_dtype(len(items)))[order]
        vals = ratings.values.astype(np.int8, copy=False)[order]
        dup = np.flatnonzero((np.diff(u_idx) == 0) & (np.diff(i_idx) == 0))
        if dup.size:
            pair = (users[u_idx[dup[0]]], items[i_idx[dup[0]]])
            raise ValueError(f"duplicate rating for user/item pair {pair!r}")
        self._users: tuple[UserId, ...] = users
        self._items: tuple[ItemId, ...] = items
        self._uindex: dict[UserId, int] = {u: i for i, u in enumerate(users)}
        self._iindex: dict[ItemId, int] = {m: i for i, m in enumerate(items)}
        self._build(u_idx, i_idx, vals)

    def _build(self, u_idx, i_idx, vals) -> None:
        """Index entries over this matrix's ids from their users, items and values in
        (user, item) order. The item-major arrays follow a stable sort by item, which keeps
        each item's raters in user order."""
        # numpy radix-sorts 16-bit keys, and a stable order is unique whatever the key's dtype.
        by_item = np.argsort(i_idx, kind="stable")
        ucount = np.bincount(u_idx, minlength=len(self._users))
        icount = np.bincount(i_idx, minlength=len(self._items))
        self._uptr = np.concatenate(([0], np.cumsum(ucount)))
        self._uitems, self._uvals = i_idx, vals
        self._iptr = np.concatenate(([0], np.cumsum(icount)))
        self._iusers, self._ivals = u_idx[by_item], vals[by_item]
        # Counts as lists, so a presence check is a plain read; the trailing 0
        # is the count of an unknown id, looked up at index -1.
        self._ucount, self._icount = ucount.tolist() + [0], icount.tolist() + [0]

        # bincount accumulates strictly sequentially in (user, item) order, so
        # means are bit-identical to a naive sorted summation; pairwise schemes
        # (np.sum, reduceat) can differ by an ULP, which matters at exact-tie
        # similarity boundaries downstream. An absent user's mean is NaN.
        sums = np.bincount(u_idx, weights=vals, minlength=len(self._users))
        self._umeans = np.divide(sums, ucount, out=np.full(sums.size, np.nan), where=ucount > 0)

    def _entries(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(user index, item index, value) of the entries at indices ``at``."""
        users = np.searchsorted(self._uptr, at, side="right") - 1
        return users, self._uitems[at], self._uvals[at]

    def _masked(self, keep: np.ndarray) -> RatingMatrix:
        """The matrix of the entries flagged in ``keep`` (one flag per entry, in
        (user, item) order), in this matrix's index space: ids and index dicts
        are shared, and ids left without an entry are absent by their zero count."""
        sub = object.__new__(RatingMatrix)
        sub._users, sub._items = self._users, self._items
        sub._uindex, sub._iindex = self._uindex, self._iindex
        users = np.arange(len(self._users), dtype=self._iusers.dtype)
        users = np.repeat(users, np.diff(self._uptr))[keep]
        sub._build(users, self._uitems[keep], self._uvals[keep])
        return sub

    # -- sizes and identifiers ------------------------------------------------

    @property
    def n_ratings(self) -> int:
        return self._uvals.size

    @property
    def users(self) -> tuple[UserId, ...]:
        return self._users

    @property
    def items(self) -> tuple[ItemId, ...]:
        return self._items

    def has_user(self, user_id: UserId) -> bool:
        return self._ucount[self._uindex.get(user_id, -1)] > 0

    def has_item(self, item_id: ItemId) -> bool:
        return self._icount[self._iindex.get(item_id, -1)] > 0

    # -- per-user / per-item views ---------------------------------------------

    @functools.cached_property
    def user_means(self) -> Mapping[UserId, float]:
        return {u: self.mean_of(u) for u in self._users if self.has_user(u)}

    @functools.cached_property
    def item_raters(self) -> Mapping[ItemId, frozenset[UserId]]:
        return {m: self.raters_of(m) for m in self._items if self.has_item(m)}

    def mean_of(self, user_id: UserId) -> float:
        return float(self._umeans[self._user_index(user_id)])

    def raters_of(self, item_id: ItemId) -> frozenset[UserId]:
        j = self._item_index(item_id)
        lo, hi = self._iptr[j], self._iptr[j + 1]
        return frozenset(self._users[u] for u in self._iusers[lo:hi])

    def ratings_of(self, user_id: UserId) -> dict[ItemId, float]:
        i = self._user_index(user_id)
        lo, hi = self._uptr[i], self._uptr[i + 1]
        return {
            self._items[j]: float(v)
            for j, v in zip(self._uitems[lo:hi], self._uvals[lo:hi])
        }

    def rating(self, user_id: UserId, item_id: ItemId) -> float | None:
        """The stored value for (user, item), or None when absent."""
        if not (self.has_user(user_id) and self.has_item(item_id)):
            return None
        j = self._iindex[item_id]
        items, vals = self._user_row(self._uindex[user_id])
        pos = np.searchsorted(items, j)
        return float(vals[pos]) if pos < items.size and items[pos] == j else None

    # -- index-level access (similarity kernels) --------------------------------

    def _user_index(self, user_id: UserId) -> int:
        i = self._uindex.get(user_id, -1)
        if not self._ucount[i]:
            raise KeyError(f"unknown user {user_id!r}")
        return i

    def _item_index(self, item_id: ItemId) -> int:
        j = self._iindex.get(item_id, -1)
        if not self._icount[j]:
            raise KeyError(f"unknown item {item_id!r}")
        return j

    def _user_row(self, uix: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._uptr[uix], self._uptr[uix + 1]
        return self._uitems[lo:hi].astype(np.intp), self._uvals[lo:hi].astype(np.float64)

    def _item_col(self, iix: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._iptr[iix], self._iptr[iix + 1]
        return self._iusers[lo:hi].astype(np.intp), self._ivals[lo:hi].astype(np.float64)


def _encode(ids: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The distinct ids, ascending, as Python objects, and each id's index among them;
    integer ids below len(ids) are ranked by a presence table, in linear time."""
    if ids.dtype.kind in "iu" and ids.min() >= 0 and ids.max() < ids.size:
        ids = ids.astype(np.intp)  # narrow ids would overflow in max() + 1
        present = np.zeros(ids.max() + 1, dtype=bool)
        present[ids] = True
        return tuple(np.flatnonzero(present).tolist()), (present.cumsum(dtype=np.int64) - 1)[ids]
    distinct, index = np.unique(ids, return_inverse=True)
    return tuple(distinct.tolist()), index.astype(np.int64, copy=False)


def build_matrix(ratings: Iterable[Rating]) -> RatingMatrix:
    """Build an immutable RatingMatrix, rejecting duplicates and empty input."""
    return RatingMatrix(ratings)
