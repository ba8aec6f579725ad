"""Content-based item weights relative to a target movie.

Two movies are compared through 0/1 feature vectors over the union of their
genres and directors plus the intersection of their actors (actor lists vary
wildly in length across metadata sources, so only shared actors count). The
weight of a catalog movie against the target is a smoothed cosine: matching
pairs get (1 + shared features) / (norm product), zero-overlap pairs get a
small positive floor so they never dominate nor vanish.

``build_vectors`` spells that construction out for one pair; ``cosine`` and
``item_weight`` read its integer counts off those vectors: shared features and
the two squared norms. ``item_weight`` is ``_smoothed_weight``, the one
element-wise weight kernel, on one pair's counts. ``WeightCalculator`` gets the
counts for a whole candidate list at once from posting lists over int feature
ids, one bincount per target, so a weight row costs a few array passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence, get_args

import numpy as np

from .data import FeatureVector, ItemId, MovieProfile, check_choice

K0Branch = Literal["mv", "literal"]
_K0_BRANCHES = get_args(K0Branch)

# Normalized (genres, directors, actors) of one movie.
FeatureSets = tuple[frozenset[str], frozenset[str], frozenset[str]]
_BLOCKS = 3  # genres, directors, actors
_NO_POSTINGS = np.empty(0, dtype=np.int64)


def _norm_label(label: str) -> str:
    return label.strip().casefold()


def _norm_set(labels: Iterable[str]) -> frozenset[str]:
    return frozenset(_norm_label(x) for x in labels)


def _feature_sets(profile: MovieProfile) -> FeatureSets:
    return (
        _norm_set(profile.genres),
        _norm_set(profile.directors),
        _norm_set(profile.actors),
    )


def _profiles_of(store) -> Mapping[ItemId, MovieProfile]:
    """Accept a ProfileStore or a bare item_id -> MovieProfile mapping."""
    return store.profiles if hasattr(store, "profiles") else store


@dataclass(frozen=True)
class WeightVector:
    """Content weights of catalog items relative to one target item."""

    target_id: ItemId
    weights: dict[ItemId, float]
    max_feature_count: int

    def __getitem__(self, item_id: ItemId) -> float:
        return float(self.row((item_id,))[0])

    def row(self, item_ids: Sequence[ItemId]) -> np.ndarray:
        """The weights of ``item_ids``, in their order, as a float64 array."""
        try:
            return np.fromiter(map(self.weights.__getitem__, item_ids), np.float64, len(item_ids))
        except KeyError as exc:
            raise KeyError(
                f"no weight for item {exc.args[0]!r} relative to target {self.target_id!r}"
            ) from None


def build_vectors(
    profile_m: MovieProfile, profile_t: MovieProfile
) -> tuple[FeatureVector, FeatureVector]:
    """Build the two aligned 0/1 vectors for a movie pair.

    The shared universe is: union of genres, union of directors, and only the
    actors present in both profiles, each block sorted for determinism.
    Directors and actors are distinct namespaces even when names collide.
    """
    g_m, d_m, a_m = _feature_sets(profile_m)
    g_t, d_t, a_t = _feature_sets(profile_t)
    a_common = a_m & a_t
    blocks = (("genre", g_m, g_t), ("director", d_m, d_t), ("actor", a_common, a_common))
    features = [(f"{p}:{x}", int(x in m), int(x in t)) for p, m, t in blocks for x in sorted(m | t)]
    universe, comp_m, comp_t = tuple(zip(*features)) or ((), (), ())
    return FeatureVector(universe, comp_m), FeatureVector(universe, comp_t)


def _pair_counts(v_m: FeatureVector, v_t: FeatureVector) -> tuple[int, int, int]:
    """(shared features, |M|², |T|²) of two aligned 0/1 vectors."""
    if v_m.universe != v_t.universe:
        raise ValueError("vectors were built over different feature universes")
    shared = sum(a * b for a, b in zip(v_m.components, v_t.components))
    return shared, sum(v_m.components), sum(v_t.components)


def cosine(v_m: FeatureVector, v_t: FeatureVector) -> float:
    """Cosine similarity of two aligned 0/1 vectors, in [0, 1]."""
    dot, nm, nt = _pair_counts(v_m, v_t)
    if nm == 0 or nt == 0:
        raise ValueError("cannot normalize an all-zero feature vector")
    # sqrt of the integer product is exact for 0/1 vectors, so identical
    # vectors give exactly 1.0.
    value = dot / math.sqrt(nm * nt)
    return min(1.0, max(0.0, value))


def item_weight(
    profile_m: MovieProfile,
    profile_t: MovieProfile,
    max_feature_count: int,
    k0_branch: K0Branch = "mv",
) -> float:
    """Smoothed content weight of movie M relative to target T, always > 0.

    With k shared features: (1 + k) / (|M| * |T|). With none, the default
    "mv" branch returns the constant floor 1/max_feature_count (the feature
    count of the richest catalog movie); "literal" keeps 1 / (|M| * |T|),
    which can reach 1.0 for two single-feature movies that share nothing.
    """
    if max_feature_count < 1:
        raise ValueError("max_feature_count must be >= 1")
    check_choice("k0_branch", k0_branch, _K0_BRANCHES)
    counts = np.array(_pair_counts(*build_vectors(profile_m, profile_t)))[:, None]
    return float(_smoothed_weight(*counts, max_feature_count, k0_branch)[0])


def _smoothed_weight(
    shared: np.ndarray,
    nm_sq: np.ndarray,
    nt_sq: np.ndarray,
    max_feature_count: int,
    k0_branch: K0Branch,
) -> np.ndarray:
    """item_weight, element-wise over integer count arrays.

    ``shared`` counts the features two movies share; ``nm_sq`` and ``nt_sq``
    are their trimmed vectors' squared norms, genres plus directors plus the
    shared actors (the actor intersection is in both vectors and in the dot
    product). The counts are exact integers and IEEE sqrt and division are
    correctly rounded, so each weight has the bits of the scalar formula
    ``(1 + shared) / (math.sqrt(nm_sq) * math.sqrt(nt_sq))``.
    """
    norms = np.sqrt(nm_sq) * np.sqrt(nt_sq)
    matched = shared >= 1
    if k0_branch == "literal":
        if np.any(norms == 0):  # never a matched pair: both norms are >= 1 there
            raise ValueError(
                "literal zero-overlap weight is undefined for a movie with no "
                "features in the comparison universe"
            )
        return np.where(matched, 1 + shared, 1) / norms
    out = np.full(norms.shape, 1.0 / max_feature_count)
    np.divide(1 + shared, norms, out=out, where=matched)
    return out


class WeightCalculator:
    """Content weights relative to a target, over a profile store.

    ``__init__`` encodes every profile once: each normalized label becomes an
    int feature id, in one namespace per block (genres, directors, actors),
    with a posting list of the items that carry it; each item's genre plus
    director count is kept too. A target's postings, counted with one
    ``bincount``, give its shared genres, directors and actors against every
    item, and the weights of any candidates follow element-wise. The
    calculator holds no mutable state, so one instance serves every fold,
    thread and forked worker of a run.
    """

    def __init__(self, store, k0_branch: K0Branch = "mv"):
        check_choice("k0_branch", k0_branch, _K0_BRANCHES)
        self._k0_branch: K0Branch = k0_branch
        profiles = _profiles_of(store)
        self._index: dict[ItemId, int] = {item_id: i for i, item_id in enumerate(profiles)}
        vocab: dict[tuple[int, str], int] = {}
        self._features: list[list[int]] = []  # each item's feature ids
        flat: list[int] = []  # every (item, feature) pair's feature id ...
        keys: list[int] = []  # ... and its posting: item * 3 + block
        base: list[int] = []
        for i, profile in enumerate(profiles.values()):
            sets = _feature_sets(profile)
            feats = [vocab.setdefault((b, x), len(vocab)) for b, xs in enumerate(sets) for x in xs]
            self._features.append(feats)
            flat.extend(feats)
            keys.extend(i * _BLOCKS + b for b, xs in enumerate(sets) for _ in xs)
            base.append(len(sets[0]) + len(sets[1]))
        self.max_feature_count = max([1, *map(len, self._features)])
        # An item's squared norm against any target, before the shared actors.
        self._base = np.array(base, dtype=np.int64)
        # Feature f's postings; one bincount over a target's postings counts
        # its shared genres, directors and actors against every item.
        flat_ids = np.array(flat, dtype=np.int64)
        order = np.argsort(flat_ids, kind="stable")
        bounds = np.cumsum(np.bincount(flat_ids, minlength=len(vocab)))[:-1]
        self._postings = np.split(np.array(keys, dtype=np.int64)[order], bounds)

    def has_profile(self, item_id: ItemId) -> bool:
        return item_id in self._index

    def _positions(self, item_ids: Iterable[ItemId], count: int) -> np.ndarray:
        try:
            return np.fromiter(map(self._index.__getitem__, item_ids), np.intp, count)
        except KeyError as exc:
            raise KeyError(f"item {exc.args[0]!r} has no profile") from None

    def _row(self, t: int, cand: np.ndarray) -> np.ndarray:
        """Weights of the items at positions ``cand`` relative to the item at ``t``."""
        postings = np.concatenate([_NO_POSTINGS, *(self._postings[f] for f in self._features[t])])
        n = len(self._index)
        shared = np.bincount(postings, minlength=n * _BLOCKS).reshape(n, _BLOCKS)[cand]
        a_common = shared[:, 2]
        return _smoothed_weight(
            shared[:, 0] + shared[:, 1] + a_common,
            self._base[cand] + a_common,
            self._base[t] + a_common,
            self.max_feature_count,
            self._k0_branch,
        )

    def weight(self, item_id: ItemId, target_id: ItemId) -> float:
        """Weight of a single catalog item relative to the target."""
        m, t = self._positions((item_id, target_id), 2)
        return float(self._row(t, m[None])[0])

    def weights_for(self, target_id: ItemId, candidates: Iterable[ItemId]) -> WeightVector:
        if not self.has_profile(target_id):
            raise KeyError(f"target item {target_id!r} has no profile")
        candidates = list(candidates)
        cand = self._positions(candidates, len(candidates))
        row = self._row(self._index[target_id], cand)
        return WeightVector(
            target_id=target_id,
            weights=dict(zip(candidates, row.tolist())),
            max_feature_count=self.max_feature_count,
        )


def weights_for_target(
    target_id: ItemId,
    store,
    candidates: Iterable[ItemId],
    k0_branch: K0Branch = "mv",
) -> WeightVector:
    """One-shot weight computation; repeated evaluation should hold a WeightCalculator."""
    return WeightCalculator(store, k0_branch=k0_branch).weights_for(target_id, candidates)
