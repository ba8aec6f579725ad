"""Content-based item weights relative to a target movie.

Two movies are compared through 0/1 feature vectors over the union of their
genres and directors plus the intersection of their actors (actor lists vary
wildly in length across metadata sources, so only shared actors count). The
weight of a catalog movie against the target is a smoothed cosine: matching
pairs get (1 + shared features) / (norm product), zero-overlap pairs get a
small positive floor so they never dominate nor vanish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, get_args

from .data import FeatureVector, ItemId, MovieProfile, check_choice

K0Branch = Literal["mv", "literal"]
_K0_BRANCHES = get_args(K0Branch)

# Normalized (genres, directors, actors) of one movie.
FeatureSets = tuple[frozenset[str], frozenset[str], frozenset[str]]


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
        try:
            return self.weights[item_id]
        except KeyError:
            raise KeyError(
                f"no weight for item {item_id!r} relative to target {self.target_id!r}"
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

    universe = (
        [f"genre:{g}" for g in sorted(g_m | g_t)]
        + [f"director:{d}" for d in sorted(d_m | d_t)]
        + [f"actor:{a}" for a in sorted(a_common)]
    )
    m_features = (
        {f"genre:{g}" for g in g_m}
        | {f"director:{d}" for d in d_m}
        | {f"actor:{a}" for a in a_common}
    )
    t_features = (
        {f"genre:{g}" for g in g_t}
        | {f"director:{d}" for d in d_t}
        | {f"actor:{a}" for a in a_common}
    )
    comp_m = tuple(1 if f in m_features else 0 for f in universe)
    comp_t = tuple(1 if f in t_features else 0 for f in universe)
    return (
        FeatureVector(tuple(universe), comp_m),
        FeatureVector(tuple(universe), comp_t),
    )


def cosine(v_m: FeatureVector, v_t: FeatureVector) -> float:
    """Cosine similarity of two aligned 0/1 vectors, in [0, 1]."""
    if v_m.universe != v_t.universe:
        raise ValueError("vectors were built over different feature universes")
    dot = sum(a * b for a, b in zip(v_m.components, v_t.components))
    nm = sum(v_m.components)
    nt = sum(v_t.components)
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
    return _smoothed_weight(
        _feature_sets(profile_m), _feature_sets(profile_t), max_feature_count, k0_branch
    )


def _smoothed_weight(
    sets_m: FeatureSets, sets_t: FeatureSets, max_feature_count: int, k0_branch: K0Branch
) -> float:
    """item_weight over normalized feature sets.

    Equivalent to building the trimmed vectors and taking dot/norms: the
    actor intersection contributes to both vectors and to the dot product.
    """
    g_m, d_m, a_m = sets_m
    g_t, d_t, a_t = sets_t
    a_common = len(a_m & a_t)
    shared = len(g_m & g_t) + len(d_m & d_t) + a_common
    nm_sq = len(g_m) + len(d_m) + a_common
    nt_sq = len(g_t) + len(d_t) + a_common
    if shared >= 1:
        return (1 + shared) / (math.sqrt(nm_sq) * math.sqrt(nt_sq))
    if k0_branch == "literal":
        if nm_sq == 0 or nt_sq == 0:
            raise ValueError(
                "literal zero-overlap weight is undefined for a movie with no "
                "features in the comparison universe"
            )
        return 1.0 / (math.sqrt(nm_sq) * math.sqrt(nt_sq))
    return 1.0 / max_feature_count


class WeightCalculator:
    """Content weights relative to a target, over a profile store.

    ``__init__`` normalizes every profile's feature sets once; after that the
    calculator holds no mutable state, so one instance serves every fold,
    thread and forked worker of a run. Each weight is computed on request.
    """

    def __init__(self, store, k0_branch: K0Branch = "mv"):
        check_choice("k0_branch", k0_branch, _K0_BRANCHES)
        self._k0_branch: K0Branch = k0_branch
        self._sets: dict[ItemId, FeatureSets] = {
            item_id: _feature_sets(profile)
            for item_id, profile in _profiles_of(store).items()
        }
        self.max_feature_count = max(
            [1] + [len(g) + len(d) + len(a) for g, d, a in self._sets.values()]
        )

    def has_profile(self, item_id: ItemId) -> bool:
        return item_id in self._sets

    def _feature_sets_of(self, item_id: ItemId) -> FeatureSets:
        try:
            return self._sets[item_id]
        except KeyError:
            raise KeyError(f"item {item_id!r} has no profile") from None

    def weight(self, item_id: ItemId, target_id: ItemId) -> float:
        """Weight of a single catalog item relative to the target."""
        return _smoothed_weight(
            self._feature_sets_of(item_id),
            self._feature_sets_of(target_id),
            self.max_feature_count,
            self._k0_branch,
        )

    def weights_for(self, target_id: ItemId, candidates: Iterable[ItemId]) -> WeightVector:
        if not self.has_profile(target_id):
            raise KeyError(f"target item {target_id!r} has no profile")
        return WeightVector(
            target_id=target_id,
            weights={c: self.weight(c, target_id) for c in candidates},
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
