"""User-user similarity, neighbor selection among a target item's raters, prediction.

Similarity is Pearson correlation over co-rated items with deviations taken
from each user's global mean, optionally weight-scaled per item by content
weights, and damped by a significance factor when the co-rated overlap is
small. Neighbors are drawn only from users who rated the target item.

One kernel, ``_correlate``, sums co-rated deviations per rater for every
caller, over (item slot, rater, value) entries. ``_gather`` joins the raters
of the active user's item columns, whatever the target, with a 16-bit item
slot per entry; the unweighted scores sweep every entry of it. A weighted
ranking, ``pearson`` and ``weighted_pearson`` keep the entries of their
candidates (the target's raters, or the other user) from one of two scans,
chosen rent-or-buy: the candidates' rows (``_rater_rows``) while the rows
scanned for the user so far hold fewer entries than its item columns, then
the gather, built once. ``_sweep`` computes deviations and weights for the
kept entries alone. Every scan lists each rater's entries in ascending item
order, so each rater's sums have the same bits. A user's scan state (its
widened row and column-entry total, read-only gather and unweighted scores,
the row entries it scanned and its item-to-slot table) is one ``_Scan``
record; ``_scan`` keeps each live matrix's last one, weakly keyed, so a freed
matrix takes its record with it. A ranking or a pair looks its record up once
and hands it to ``_gather`` or ``_rater_rows``; the kept entries
(``_Entries``) carry it to the sweep, which reads the user's index and row
from it. The matrix stores indices narrow (see ``data``); a user's row and an
item's column come widened to intp, and an index array joined from the
matrix's own (the gather's raters, a rows scan's items) is widened once,
before it indexes anything.

``rank_candidates`` returns a ``Ranking``: read-only arrays over the
candidates, best first, with each candidate's deviation ``r_ut - mean_u``
read from the target's item column. It takes the prediction's running sums
once (``_prefix_sums``), so ``predict`` over the first n neighbours, for any
n, is one read at column n; ``[:k]`` is a view that shares them. A neighbour
list from anywhere else has its deviations looked up and goes through the
same sums. Each running sum starts from an exact +0.0 and ``np.cumsum``
adds in sequence, so column n has the bits of the left-to-right loop
``s = 0.0; s += term`` over the first n terms.

``_plain_grid`` is the evaluation's pc path: one user's T targets at once. Their
columns are joined with a target slot, ranked by the rule ``rank_candidates`` uses
(``_ranked``) with the slot as first key, and summed zero-padded to one width, so
every (k, target) prediction has the bits of ``predict`` over that ranking's head.
"""

from __future__ import annotations

import operator
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Literal, NamedTuple, get_args

import numpy as np

from .data import ItemId, RatingMatrix, UserId, check_choice, index_dtype
from .weighting import WeightVector

Denominator = Literal["abs", "signed"]
_DENOMINATORS = get_args(Denominator)

SIGNIFICANCE_OVERLAP = 50
_DEN_EPS = 1e-9


@dataclass(frozen=True, slots=True)
class SimilarityScore:
    """One candidate's similarity to the active user."""

    user_id: UserId
    raw: float
    cf: float
    value: float
    overlap: int


@dataclass(frozen=True)
class NeighborSet:
    """Top-k raters of the target item, sorted by damped similarity descending.

    ``neighbors`` is a tuple of scores or a slice of a ``Ranking``.
    """

    target_item: ItemId
    active_user: UserId
    neighbors: Sequence[SimilarityScore]

    def __len__(self) -> int:
        return len(self.neighbors)


@dataclass(frozen=True, slots=True)
class Prediction:
    value: float
    fallback: bool
    n_neighbors: int


def significance_factor(overlap: int) -> float:
    """Damping in (0, 1]: overlap/50 below the 50 co-rating threshold, else 1."""
    if overlap < 0:
        raise ValueError("overlap must be >= 0")
    return float(_damping(overlap))


def _damping(overlap):
    return np.minimum(overlap, SIGNIFICANCE_OVERLAP) / SIGNIFICANCE_OVERLAP


def pearson(a: UserId, u: UserId, matrix: RatingMatrix) -> tuple[float, int]:
    """(raw correlation, co-rated count) between two users.

    Deviations use each user's mean over all their ratings, and the sums run
    over co-rated items only. Zero overlap or zero variance on the co-rated
    set gives raw 0.
    """
    return _pair_correlation(a, u, matrix, None)


def weighted_pearson(
    a: UserId,
    u: UserId,
    target: ItemId,
    matrix: RatingMatrix,
    weights: WeightVector,
) -> tuple[float, int]:
    """Pearson over weight-scaled deviations; weights are relative to the target.

    Each co-rated item's deviations are multiplied by its content weight
    before the usual correlation arithmetic, so relevance to the target item
    amplifies agreement (and disagreement) on that item. Only co-rated items
    need a weight.
    """
    _check_target(weights, target)
    return _pair_correlation(a, u, matrix, weights)


def _check_target(weights: WeightVector, target: ItemId) -> None:
    if weights.target_id != target:
        raise ValueError(
            f"weight vector was built for target {weights.target_id!r}, not {target!r}"
        )


def _pair_correlation(
    a: UserId, u: UserId, matrix: RatingMatrix, weights: WeightVector | None
) -> tuple[float, int]:
    """(raw, overlap) of one pair, over the entries a and u co-rated."""
    aix, uix = matrix._user_index(a), matrix._user_index(u)
    entries = _candidate_entries(matrix, aix, np.array([uix]))
    raw, _, _, overlap = _sweep(matrix, entries, weights)
    return float(raw[uix]), int(overlap[uix])


def _correlate(
    group: np.ndarray, n_groups: int, x: np.ndarray, y: np.ndarray, w: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(raw, cf, value, overlap) per group of paired deviations x, y.

    Entry i belongs to group ``group[i]``; ``w`` optionally scales both of
    its deviations. bincount adds strictly in entry order, so a group's sums
    are the naive left-to-right sums over its entries.
    """
    if w is not None:
        x, y = w * x, w * y
    num = np.bincount(group, weights=x * y, minlength=n_groups)
    den_a = np.bincount(group, weights=x * x, minlength=n_groups)
    den_u = np.bincount(group, weights=y * y, minlength=n_groups)
    overlap = np.bincount(group, minlength=n_groups)
    denom = den_a * den_u
    raw = np.divide(num, np.sqrt(denom), out=np.zeros(n_groups), where=denom > 0)
    np.clip(raw, -1.0, 1.0, out=raw)
    cf = _damping(overlap)
    return raw, cf, raw * cf, overlap


# -- one active user's row against every rater --------------------------------


@dataclass(slots=True)
class _Scan:
    """One user's scan state on one matrix. Its gather, every (item of the user, rater of that
    item) entry in the user's item order, then rater order, is three read-only arrays, None
    until built. The record holds no reference to its matrix, so the weak memo frees both."""

    uix: int  # the user's index
    row: tuple[np.ndarray, np.ndarray]  # the user's item indices and values, widened once
    columns: int  # the entries in the user's item columns: the gather's size
    offset: np.ndarray | None = None  # per item: its column's start minus its first entry here
    slot: np.ndarray | None = None  # each entry's item slot: uint16, or intp past 65,536 items
    users: np.ndarray | None = None  # each entry's rater, widened to intp once at build
    rows: int = 0  # the candidates' row entries scanned before the gather was built
    slot_of: np.ndarray | None = None  # per item of the matrix: its slot, or the row's length
    plain: tuple[np.ndarray, ...] | None = None  # the unweighted scores


_scans: weakref.WeakKeyDictionary[RatingMatrix, _Scan] = weakref.WeakKeyDictionary()


def _scan(matrix: RatingMatrix, uix: int) -> _Scan:
    """User ``uix``'s record on ``matrix``: the matrix's last one if it is this user's."""
    scan = _scans.get(matrix)
    if scan is None or scan.uix != uix:
        items, vals = matrix._user_row(uix)
        columns = int((matrix._iptr[items + 1] - matrix._iptr[items]).sum())
        scan = _scans[matrix] = _Scan(uix, (items, vals), columns)
    return scan


def _frozen(arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _segments(array: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """The slices ``array[lo:hi]`` joined, and each one's start in ``array`` minus in the join."""
    counts = ends - starts
    parts = [array[lo:hi] for lo, hi in zip(starts.tolist(), ends.tolist())]
    return np.concatenate(parts), starts - (np.cumsum(counts) - counts)


class _Entries(NamedTuple):
    """Co-rated entries of one user's scan, with the record they came from, so a
    sweep reads the user's row without looking the record up again."""

    scan: _Scan
    slot: np.ndarray  # the entry's item slot in the user's row
    users: np.ndarray  # the rater
    vals: np.ndarray  # the rater's value


def _gather(matrix: RatingMatrix, scan: _Scan) -> _Scan:
    """The user's scan record ``scan``, with its gather built."""
    if scan.users is None:
        items_a, _ = scan.row
        starts, ends = matrix._iptr[items_a], matrix._iptr[items_a + 1]
        users, offset = _segments(matrix._iusers, starts, ends)
        slot = np.repeat(np.arange(items_a.size, dtype=index_dtype(items_a.size)), ends - starts)
        scan.offset, scan.slot, scan.users = _frozen((offset, slot, users.astype(np.intp)))
    return scan


def _rater_rows(matrix: RatingMatrix, scan: _Scan, raters: np.ndarray) -> _Entries:
    """The raters' entries on the items of ``scan``'s user, by rater, then item."""
    items_a, _ = scan.row
    if scan.slot_of is None:
        slot_of = np.full(len(matrix.items), items_a.size, dtype=index_dtype(items_a.size + 1))
        slot_of[items_a] = np.arange(items_a.size)
        (scan.slot_of,) = _frozen((slot_of,))
    starts, ends = matrix._uptr[raters], matrix._uptr[raters + 1]
    rows, offset = _segments(matrix._uitems, starts, ends)
    slot = scan.slot_of[rows.astype(np.intp)]
    kept = np.flatnonzero(slot < items_a.size)
    owner = np.repeat(np.arange(raters.size, dtype=index_dtype(raters.size)), ends - starts)
    owner = owner[kept].astype(np.intp)  # each kept entry's rater
    vals = matrix._uvals[kept + offset[owner]]
    return _Entries(scan, slot[kept].astype(np.intp), raters[owner], vals)


def _sweep(
    matrix: RatingMatrix, entries: _Entries, weights: WeightVector | None = None
) -> tuple[np.ndarray, ...]:
    """(raw, cf, value, overlap) of the entries' user against every user over the
    ``entries`` alone; each rater's sums run in the entries' order, and only
    items on an entry need a weight."""
    scan, slot, users, vals_u = entries
    items_a, vals_a = scan.row
    dev_a = (vals_a - matrix._umeans[scan.uix])[slot]
    dev_u = vals_u - matrix._umeans[users]
    w = None
    if weights is not None:
        used = np.zeros(items_a.size, dtype=bool)
        used[slot] = True
        w_row = np.zeros(items_a.size)
        w_row[used] = weights.row(list(map(matrix.items.__getitem__, items_a[used].tolist())))
        w = w_row[slot]
    return _correlate(users, len(matrix.users), dev_a, dev_u, w)


def _plain_scores(matrix: RatingMatrix, uix: int) -> tuple[np.ndarray, ...]:
    """Unweighted (raw, cf, value, overlap) of ``uix`` against every user, over every entry
    of its gather."""
    scan = _gather(matrix, _scan(matrix, uix))
    if scan.plain is None:
        slot = scan.slot.astype(np.intp)
        vals = matrix._ivals[np.arange(slot.size) + scan.offset[slot]]
        scan.plain = _frozen(_sweep(matrix, _Entries(scan, slot, scan.users, vals)))
    return scan.plain


# -- the ranking and its running sums ------------------------------------------


class _Candidates(NamedTuple):
    """One array per ranked candidate field, best candidate first."""

    users: np.ndarray  # user index
    raw: np.ndarray
    cf: np.ndarray
    value: np.ndarray
    overlap: np.ndarray
    dev: np.ndarray  # the candidate's rating of the target minus its mean


def _prefix_sums(dev: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Running sums of dev*value, |value| and value along the last axis, stacked first;
    column n covers the first n neighbours and column 0 is an exact +0.0."""
    terms = np.zeros((3, *value.shape[:-1], value.shape[-1] + 1))
    terms[0, ..., 1:] = dev * value
    terms[1, ..., 1:] = np.abs(value)
    terms[2, ..., 1:] = value
    return np.cumsum(terms, axis=-1)


class Ranking(Sequence):
    """A target's scored candidates, best first, as read-only arrays.

    Indexing builds a ``SimilarityScore``; a ``[:k]`` slice is a view sharing
    the arrays and the running sums, any other slice a new ranking. A ranking
    compares equal to a list or tuple of the same scores and is not hashable.
    """

    __slots__ = ("_matrix", "_active", "_target", "_cols", "_sums", "_n")

    def __init__(
        self, matrix: RatingMatrix | None, active: UserId, target: ItemId, cols: _Candidates
    ):
        self._matrix, self._active, self._target = matrix, active, target
        self._cols = _frozen(cols)
        self._sums = _prefix_sums(cols.dev, cols.value)
        self._sums.flags.writeable = False
        self._n = cols.value.size

    def _head(self, n: int) -> Ranking:
        view = object.__new__(Ranking)
        view._matrix, view._active, view._target = self._matrix, self._active, self._target
        view._cols, view._sums, view._n = self._cols, self._sums, n
        return view

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._n)
            if start == 0 and step == 1:
                return self._head(stop)
            picked = np.arange(start, stop, step)
            cols = _Candidates(*(col[picked] for col in self._cols))
            return Ranking(self._matrix, self._active, self._target, cols)
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("ranking index out of range")
        c = self._cols
        return SimilarityScore(
            user_id=self._matrix.users[c.users[i]],
            raw=float(c.raw[i]),
            cf=float(c.cf[i]),
            value=float(c.value[i]),
            overlap=int(c.overlap[i]),
        )

    def __eq__(self, other):
        if not isinstance(other, (Ranking, list, tuple)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return f"Ranking({list(self)!r})"

    def _drawn_for(self, matrix: RatingMatrix, a: UserId, target: ItemId) -> bool:
        return self._matrix is matrix and self._active == a and self._target == target


# What every "no candidates" outcome returns.
EMPTY_RANKING = Ranking(None, None, None, _Candidates(*np.empty((len(_Candidates._fields), 0))))


def rank_candidates(
    a: UserId,
    target: ItemId,
    matrix: RatingMatrix,
    weights: WeightVector | None = None,
    min_sim: float | None = None,
) -> Ranking:
    """All raters of the target (minus the active user, minus zero-overlap
    candidates), sorted by damped similarity descending, ties by user id."""
    aix = matrix._user_index(a)
    if not matrix.has_item(target):
        return EMPTY_RANKING
    cand, r_ut = matrix._item_col(matrix._item_index(target))
    others = cand != aix
    cand, r_ut = cand[others], r_ut[others]
    if cand.size == 0:
        return EMPTY_RANKING

    if weights is None:
        raw, cf, value, overlap = _plain_scores(matrix, aix)
    else:
        _check_target(weights, target)
        entries = _candidate_entries(matrix, aix, cand)
        raw, cf, value, overlap = _sweep(matrix, entries, weights)

    ranked = _ranked(cand, value, overlap, min_sim)
    if ranked.size == 0:
        return EMPTY_RANKING
    cand, r_ut = cand[ranked], r_ut[ranked]
    dev = r_ut - matrix._umeans[cand]
    cols = _Candidates(cand, raw[cand], cf[cand], value[cand], overlap[cand], dev)
    return Ranking(matrix, a, target, cols)


def _ranked(cand, value, overlap, min_sim, slot=None) -> np.ndarray:
    """Positions in ``cand`` of the candidates kept, best first: zero overlap and a value
    below ``min_sim`` drop out, and the rest sort by (slot, -value, user index)."""
    keep = overlap[cand] > 0
    if min_sim is not None:
        keep &= value[cand] >= min_sim
    kept = np.flatnonzero(keep)
    cand = cand[kept]
    keys = (cand, -value[cand]) if slot is None else (cand, -value[cand], slot[kept])
    return kept[np.lexsort(keys)]


def _plain_grid(matrix, aix, targets, k_values, denominator, min_sim):
    """Unweighted predictions of user ``aix`` for item indices ``targets`` at every k, and
    their fallback flags, each shaped (k, target): ``rank_candidates`` then ``predict`` per
    (target, k), with the same float operations, in array passes over all the targets."""
    _, _, value, overlap = _plain_scores(matrix, aix)
    targets = np.asarray(targets, dtype=np.intp)
    counts = matrix._iptr[targets + 1] - matrix._iptr[targets]
    slot = np.repeat(np.arange(targets.size), counts)  # each entry's target
    at = np.arange(slot.size) + (matrix._iptr[targets] - (np.cumsum(counts) - counts))[slot]
    cand = matrix._iusers[at].astype(np.intp)  # every target's raters, widened once
    others = np.flatnonzero(cand != aix)
    ranked = others[_ranked(cand[others], value, overlap, min_sim, slot[others])]
    cand, slot, at = cand[ranked], slot[ranked], at[ranked]
    # Each target's first max(k) neighbours, zero-padded to one width.
    n = np.bincount(slot, minlength=targets.size)
    place = np.arange(slot.size) - (np.cumsum(n) - n)[slot]
    top = np.flatnonzero(place < max(k_values))
    dev, val = np.zeros((2, targets.size, min(n.max(initial=0), max(k_values))))
    cand, slot, place = cand[top], slot[top], place[top]
    dev[slot, place] = matrix._ivals[at[top]] - matrix._umeans[cand]
    val[slot, place] = value[cand]
    reach = np.minimum(np.array(k_values)[:, None], n)
    num, mass_abs, mass = _prefix_sums(dev, val)[:, np.arange(targets.size), reach]
    den = mass_abs if denominator == "abs" else mass
    fell = np.abs(den) < _DEN_EPS  # no neighbours leaves den at 0.0
    step = np.divide(num, den, out=np.zeros(den.shape), where=~fell)  # a fallback's is 0.0
    return np.clip(matrix._umeans[aix] + step, 1.0, 5.0), fell


def _candidate_entries(matrix: RatingMatrix, aix: int, cand: np.ndarray) -> _Entries:
    """The entries co-rated by user ``aix`` and the candidates. Rent or buy: the candidates'
    rows are scanned while the rows scanned for this user, these included, hold fewer entries
    than its item columns; then its gather is built once and read. The user's record is
    looked up once, here, and travels with the entries."""
    scan = _scan(matrix, aix)
    if scan.users is None:
        scan.rows += int((matrix._uptr[cand + 1] - matrix._uptr[cand]).sum())
        if scan.rows < scan.columns:
            return _rater_rows(matrix, scan, cand)
    _gather(matrix, scan)
    is_cand = np.zeros(len(matrix.users), dtype=bool)
    is_cand[cand] = True
    kept = np.flatnonzero(is_cand[scan.users])
    slot = scan.slot[kept].astype(np.intp)
    return _Entries(scan, slot, scan.users[kept], matrix._ivals[kept + scan.offset[slot]])


def select_neighbors(
    a: UserId,
    target: ItemId,
    matrix: RatingMatrix,
    k: int,
    weights: WeightVector | None = None,
    min_sim: float | None = None,
) -> NeighborSet:
    """Top-k most similar raters of the target item."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = rank_candidates(a, target, matrix, weights=weights, min_sim=min_sim)
    return NeighborSet(target_item=target, active_user=a, neighbors=ranked[:k])


def predict(
    a: UserId,
    target: ItemId,
    neighbors: NeighborSet,
    matrix: RatingMatrix,
    denominator: Denominator = "abs",
) -> Prediction:
    """Mean-centered weighted prediction, clamped to the 1-5 scale.

    Falls back to the active user's mean when there are no usable neighbors
    or the similarity mass is (numerically) zero.
    """
    check_choice("denominator", denominator, _DENOMINATORS)
    if neighbors.target_item != target or neighbors.active_user != a:
        raise ValueError("neighbor set does not match the requested user/item pair")
    mean_a = matrix.mean_of(a)  # KeyError for a user without training ratings

    n = len(neighbors)
    sums = _running_sums(neighbors.neighbors, a, target, matrix)
    num, abs_mass, signed_mass = sums[:, n].tolist()
    den = abs_mass if denominator == "abs" else signed_mass
    # No neighbours leaves den at 0.0.
    if abs(den) < _DEN_EPS:
        return Prediction(value=_clamp(mean_a), fallback=True, n_neighbors=n)
    return Prediction(value=_clamp(mean_a + num / den), fallback=False, n_neighbors=n)


def _running_sums(
    scores: Sequence[SimilarityScore], a: UserId, target: ItemId, matrix: RatingMatrix
) -> np.ndarray:
    """The ranking's own sums when it was drawn for (matrix, a, target); else
    the sums over the scores, each neighbour's rating of the target looked up."""
    if isinstance(scores, Ranking) and scores._drawn_for(matrix, a, target):
        return scores._sums
    n = len(scores)
    dev = np.fromiter((_deviation(s.user_id, target, matrix) for s in scores), float, n)
    value = np.fromiter((s.value for s in scores), float, n)
    return _prefix_sums(dev, value)


def _deviation(u: UserId, target: ItemId, matrix: RatingMatrix) -> float:
    r_ut = matrix.rating(u, target)
    if r_ut is None:
        raise ValueError(f"neighbor {u!r} has no training rating for item {target!r}")
    return r_ut - matrix.mean_of(u)


def _clamp(x: float) -> float:
    return min(5.0, max(1.0, x))
