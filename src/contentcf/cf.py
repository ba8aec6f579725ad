"""User-user similarity, neighbor selection among a target item's raters, prediction.

Similarity is Pearson correlation over co-rated items with deviations taken
from each user's global mean, optionally weight-scaled per item by content
weights, and damped by a significance factor when the co-rated overlap is
small. Neighbors are drawn only from users who rated the target item.

One kernel, ``_correlate``, sums co-rated deviations per group for every
caller, over one gather: the active user's (item, rater) entries with both
deviations. Ranking groups the gather by rater; ``pearson`` and
``weighted_pearson`` take the entries rated by the other user as one group.
The gather and its unweighted scores are memoised, read-only, for the last
(matrix, user) asked for, which keeps that matrix alive until the next.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Literal, NamedTuple, get_args

import numpy as np

from .data import ItemId, RatingMatrix, UserId, check_choice
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
    """Top-k raters of the target item, sorted by damped similarity descending."""

    target_item: ItemId
    active_user: UserId
    neighbors: tuple[SimilarityScore, ...]

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
    """(raw, overlap) of one pair: the entries of a's gather rated by u form one group."""
    aix, uix = matrix._user_index(a), matrix._user_index(u)
    g = _gather(matrix, aix)
    pair = g.users == uix
    w = None
    if weights is not None:
        w = _weight_row(weights, matrix, g.items[g.itempos[pair]])
    group = np.zeros(np.count_nonzero(pair), dtype=np.intp)
    raw, _, _, overlap = _correlate(group, 1, g.dev_a[pair], g.dev_u[pair], w)
    return float(raw[0]), int(overlap[0])


def _weight_row(weights: WeightVector, matrix: RatingMatrix, item_ix: np.ndarray) -> np.ndarray:
    """The weight of each item index in ``item_ix``."""
    items = matrix.items
    return np.fromiter(
        (weights[items[j]] for j in item_ix.tolist()), dtype=np.float64, count=item_ix.size
    )


def _correlate(
    group: np.ndarray,
    n_groups: int,
    x: np.ndarray,
    y: np.ndarray,
    w: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(raw, cf, value, overlap) per group of paired deviations x, y.

    Entry i belongs to group ``group[i]``; ``w`` optionally scales both of
    its deviations. bincount adds strictly in entry order, so a group's sums
    are the naive left-to-right sums over its entries.
    """
    if w is not None:
        x = w * x
        y = w * y
    num = np.bincount(group, weights=x * y, minlength=n_groups)
    den_a = np.bincount(group, weights=x * x, minlength=n_groups)
    den_u = np.bincount(group, weights=y * y, minlength=n_groups)
    overlap = np.bincount(group, minlength=n_groups)
    denom = den_a * den_u
    raw = np.zeros(n_groups)
    mask = denom > 0
    raw[mask] = num[mask] / np.sqrt(denom[mask])
    np.clip(raw, -1.0, 1.0, out=raw)
    cf = _damping(overlap)
    value = raw * cf
    return raw, cf, value, overlap


# -- one active user's row against every rater --------------------------------


class _Gather(NamedTuple):
    """Every (item of a, rater of that item) entry, in a's item order, then rater order."""

    items: np.ndarray  # a's item indices, ascending
    itempos: np.ndarray  # each entry's position in ``items``
    users: np.ndarray  # each entry's rater
    dev_a: np.ndarray  # a's deviation on the entry's item
    dev_u: np.ndarray  # the rater's deviation on it


def _frozen(arrays: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=1)
def _gather(matrix: RatingMatrix, uix: int) -> _Gather:
    items_a, vals_a = matrix._user_row(uix)
    starts = matrix._iptr[items_a]
    counts = matrix._iptr[items_a + 1] - starts
    first = np.cumsum(counts) - counts  # gather index of each item's first rater
    pos = np.arange(counts.sum()) - np.repeat(first - starts, counts)
    itempos = np.repeat(np.arange(items_a.size), counts)
    users = matrix._iusers[pos]
    dev_a = (vals_a - matrix._umeans[uix])[itempos]
    dev_u = matrix._ivals[pos] - matrix._umeans[users]
    return _Gather(*_frozen((items_a, itempos, users, dev_a, dev_u)))


@functools.lru_cache(maxsize=1)
def _plain_scores(matrix: RatingMatrix, uix: int) -> tuple[np.ndarray, ...]:
    """Unweighted (raw, cf, value, overlap) of user ``uix`` against every user."""
    g = _gather(matrix, uix)
    return _frozen(_correlate(g.users, len(matrix.users), g.dev_a, g.dev_u))


def rank_candidates(
    a: UserId,
    target: ItemId,
    matrix: RatingMatrix,
    weights: WeightVector | None = None,
    min_sim: float | None = None,
) -> list[SimilarityScore]:
    """All raters of the target (minus the active user, minus zero-overlap
    candidates), sorted by damped similarity descending, ties by user id."""
    aix = matrix._user_index(a)
    if not matrix.has_item(target):
        return []
    tix = matrix._item_index(target)
    cand = matrix._item_col(tix)[0]
    cand = cand[cand != aix]
    if cand.size == 0:
        return []

    if weights is None:
        raw, cf, value, overlap = _plain_scores(matrix, aix)
    else:
        _check_target(weights, target)
        g = _gather(matrix, aix)
        w = _weight_row(weights, matrix, g.items)
        raw, cf, value, overlap = _correlate(
            g.users, len(matrix.users), g.dev_a, g.dev_u, w[g.itempos]
        )

    keep = overlap[cand] > 0
    if min_sim is not None:
        keep &= value[cand] >= min_sim
    cand = cand[keep]
    if cand.size == 0:
        return []
    order = np.lexsort((cand, -value[cand]))
    cand = cand[order]
    users = matrix.users
    return [
        SimilarityScore(
            user_id=users[c],
            raw=float(raw[c]),
            cf=float(cf[c]),
            value=float(value[c]),
            overlap=int(overlap[c]),
        )
        for c in cand
    ]


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
    return NeighborSet(target_item=target, active_user=a, neighbors=tuple(ranked[:k]))


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
    if not matrix.has_user(a):
        raise KeyError(f"active user {a!r} has no training ratings")
    mean_a = matrix.mean_of(a)

    num = 0.0
    den = 0.0
    for s in neighbors.neighbors:
        r_ut = matrix.rating(s.user_id, target)
        if r_ut is None:
            raise ValueError(
                f"neighbor {s.user_id!r} has no training rating for item {target!r}"
            )
        num += (r_ut - matrix.mean_of(s.user_id)) * s.value
        den += abs(s.value) if denominator == "abs" else s.value

    if not neighbors.neighbors or abs(den) < _DEN_EPS:
        return Prediction(value=_clamp(mean_a), fallback=True, n_neighbors=len(neighbors))
    return Prediction(
        value=_clamp(mean_a + num / den), fallback=False, n_neighbors=len(neighbors)
    )


def _clamp(x: float) -> float:
    return min(5.0, max(1.0, x))
