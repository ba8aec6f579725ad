"""Core immutable data structures: ratings, the sparse rating matrix, movie profiles.

A rating set travels as ``RatingColumns``: one read-only array per field, so
a million ratings cost four arrays rather than a million objects. The rating
matrix keeps both a user-major and an item-major view as flat numpy arrays so
that similarity sweeps over a user's items (and rater lookups for a target
item) are vectorizable. It is immutable after construction and safe to share
across worker processes or threads.
"""

from __future__ import annotations

import enum
import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

UserId = int | str
ItemId = int | str

RATING_MIN = 1
RATING_MAX = 5


def check_choice(name: str, value: object, allowed: tuple) -> None:
    """Reject a setting outside its allowed values, so it never falls into a default branch."""
    if value not in allowed:
        raise ValueError(f"unknown {name} {value!r}; expected one of {allowed}")


@dataclass(frozen=True, slots=True)
class Rating:
    """A single user-item score on the 1-5 scale; timestamp is carried, unused."""

    user_id: UserId
    item_id: ItemId
    value: int
    timestamp: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, np.integer)) or isinstance(self.value, bool):
            raise ValueError(f"rating value must be an integer, got {self.value!r}")
        if not RATING_MIN <= self.value <= RATING_MAX:
            raise ValueError(
                f"rating out of range: {self.value} for ({self.user_id}, {self.item_id})"
            )


class RatingColumns(Sequence):
    """Ratings as four read-only arrays: user ids, item ids, values, timestamps.

    Parsed files give int64 columns; the columns of arbitrary ``Rating``
    objects (``from_ratings``) keep ids and timestamps as Python objects.
    Indexing builds a ``Rating``, a slice is a view of the same arrays, and
    the columns compare equal to a list or tuple of the same ratings. Not
    hashable.
    """

    __slots__ = ("_cols",)

    def __init__(self, user_ids, item_ids, values, timestamps):
        cols = tuple(np.asarray(c).view() for c in (user_ids, item_ids, values, timestamps))
        if any(c.ndim != 1 or c.size != cols[0].size for c in cols):
            raise ValueError("rating columns must be 1-d and of one length")
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
        cols[2] = cols[2].astype(np.int64)
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
        object.__setattr__(self, "genres", frozenset(self.genres))
        object.__setattr__(self, "directors", frozenset(self.directors))
        object.__setattr__(self, "actors", frozenset(self.actors))
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
    """

    def __init__(self, ratings: Iterable[Rating]):
        if not isinstance(ratings, RatingColumns):
            ratings = RatingColumns.from_ratings(ratings)
        if not ratings:
            raise ValueError("cannot build a rating matrix from an empty rating set")
        users, u_idx = _encode(ratings.user_ids)
        items, i_idx = _encode(ratings.item_ids)
        # A stable sort on one (user, item) key gives lexsort's permutation,
        # and input already grouped by user sorts in near-linear time.
        order = np.argsort(u_idx * len(items) + i_idx, kind="stable")
        u_idx, i_idx = u_idx[order], i_idx[order]
        vals = ratings.values[order].astype(np.float64)
        dup = np.flatnonzero((np.diff(u_idx) == 0) & (np.diff(i_idx) == 0))
        if dup.size:
            pair = (users[u_idx[dup[0]]], items[i_idx[dup[0]]])
            raise ValueError(f"duplicate rating for user/item pair {pair!r}")
        self._build(users, items, u_idx, i_idx, vals)

    def _build(self, users: tuple, items: tuple, u_idx, i_idx, vals) -> None:
        """Index distinct entries, given in (user, item) order, of every user and item."""
        self._users: tuple[UserId, ...] = users
        self._items: tuple[ItemId, ...] = items
        self._uindex: dict[UserId, int] = {u: i for i, u in enumerate(users)}
        self._iindex: dict[ItemId, int] = {m: i for i, m in enumerate(items)}

        n_users, n_items = len(users), len(items)
        self._uptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(u_idx, minlength=n_users), out=self._uptr[1:])
        self._uitems = i_idx
        self._uvals = vals

        order_i = np.argsort(i_idx, kind="stable")
        self._iptr = np.zeros(n_items + 1, dtype=np.int64)
        np.cumsum(np.bincount(i_idx, minlength=n_items), out=self._iptr[1:])
        self._iusers = u_idx[order_i]
        self._ivals = vals[order_i]

        # bincount accumulates strictly sequentially in (user, item) order, so
        # means are bit-identical to a naive sorted summation; pairwise schemes
        # (np.sum, reduceat) can differ by an ULP, which matters at exact-tie
        # similarity boundaries downstream.
        counts = np.diff(self._uptr)
        sums = np.bincount(u_idx, weights=vals, minlength=n_users)
        self._umeans = sums / counts

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(user index, item index, value) of every entry, in (user, item) order."""
        users = np.repeat(np.arange(len(self._users)), np.diff(self._uptr))
        return users, self._uitems, self._uvals

    def _masked(self, keep: np.ndarray) -> RatingMatrix:
        """The matrix of the entries flagged in ``keep`` (one flag per entry, in
        (user, item) order); users and items left without an entry drop out."""
        u_idx, i_idx, vals = (column[keep] for column in self._entries())
        u_used = np.bincount(u_idx, minlength=len(self._users)) > 0
        i_used = np.bincount(i_idx, minlength=len(self._items)) > 0
        sub = object.__new__(RatingMatrix)
        sub._build(
            tuple(self._users[u] for u in np.flatnonzero(u_used)),
            tuple(self._items[i] for i in np.flatnonzero(i_used)),
            (np.cumsum(u_used) - 1)[u_idx],
            (np.cumsum(i_used) - 1)[i_idx],
            vals,
        )
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
        return user_id in self._uindex

    def has_item(self, item_id: ItemId) -> bool:
        return item_id in self._iindex

    # -- per-user / per-item views ---------------------------------------------

    @functools.cached_property
    def user_means(self) -> Mapping[UserId, float]:
        return {u: self.mean_of(u) for u in self._users}

    @functools.cached_property
    def item_raters(self) -> Mapping[ItemId, frozenset[UserId]]:
        return {m: self.raters_of(m) for m in self._items}

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
        i = self._uindex.get(user_id)
        j = self._iindex.get(item_id)
        if i is None or j is None:
            return None
        lo, hi = self._uptr[i], self._uptr[i + 1]
        pos = lo + np.searchsorted(self._uitems[lo:hi], j)
        if pos < hi and self._uitems[pos] == j:
            return float(self._uvals[pos])
        return None

    # -- index-level access (similarity kernels) --------------------------------

    def _user_index(self, user_id: UserId) -> int:
        try:
            return self._uindex[user_id]
        except KeyError:
            raise KeyError(f"unknown user {user_id!r}") from None

    def _item_index(self, item_id: ItemId) -> int:
        try:
            return self._iindex[item_id]
        except KeyError:
            raise KeyError(f"unknown item {item_id!r}") from None

    def _user_row(self, uix: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._uptr[uix], self._uptr[uix + 1]
        return self._uitems[lo:hi], self._uvals[lo:hi]

    def _item_col(self, iix: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._iptr[iix], self._iptr[iix + 1]
        return self._iusers[lo:hi], self._ivals[lo:hi]


def _encode(ids: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The distinct ids, ascending, as Python objects, and each id's index among them."""
    distinct, index = np.unique(ids, return_inverse=True)
    return tuple(distinct.tolist()), index.astype(np.int64, copy=False)


def build_matrix(ratings: Iterable[Rating]) -> RatingMatrix:
    """Build an immutable RatingMatrix, rejecting duplicates and empty input."""
    return RatingMatrix(ratings)
