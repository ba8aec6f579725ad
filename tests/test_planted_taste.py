"""The paper's claim as a seeded offline check: WPC beats PC when content carries taste.

Every digest and oracle test pins bits; none checks that content weighting
helps when it should. This module plants taste in the genres of a synthetic
dataset and runs the full five-fold protocol on it:

- 300 users and 600 movies. Each movie has one or two of 8 genres and one of
  60 directors, and no actors.
- Each user has an N(0, s) preference per genre and an N(0, 0.3) bias, and
  rates 30-89 movies drawn uniformly.
- A rating is ``round(clip(3.2 + bias + the mean preference over the movie's
  genres + N(0, 0.7), 1, 5))``.

At s = 1.0, wpc's pooled MAE is below pc's at every k of the paper's grid.
The control, on seed 0, keeps the same ratings and shuffles the genres across
movies, so the profiles carry no taste, and there wpc must not beat pc at any
k.
"""

from __future__ import annotations

import numpy as np
import pytest

from contentcf import RunConfig, run_experiment
from contentcf.data import MovieProfile, RatingColumns

N_USERS, N_MOVIES, N_GENRES, N_DIRECTORS = 300, 600, 8, 60
K_VALUES = (5, 10, 20, 30, 50)  # the paper's grid


def planted_taste(seed: int, s: float):
    """(rating columns, the profiles, the profiles with their genres shuffled across movies)."""
    rng = np.random.default_rng(seed)
    genres = [rng.choice(N_GENRES, size=rng.integers(1, 3), replace=False) for _ in range(N_MOVIES)]
    directors = rng.integers(N_DIRECTORS, size=N_MOVIES)
    preference = rng.normal(0.0, s, size=(N_USERS, N_GENRES))
    bias = rng.normal(0.0, 0.3, size=N_USERS)
    taste = np.stack([preference[:, g].mean(axis=1) for g in genres], axis=1)  # user x movie
    users, items, values = [], [], []
    for u in range(N_USERS):
        seen = rng.choice(N_MOVIES, size=rng.integers(30, 90), replace=False)
        noisy = 3.2 + bias[u] + taste[u, seen] + rng.normal(0.0, 0.7, size=seen.size)
        users.append(np.full(seen.size, u))
        items.append(seen)
        values.append(np.round(np.clip(noisy, 1, 5)).astype(np.int8))
    users, items, values = map(np.concatenate, (users, items, values))
    ratings = RatingColumns(users, items, values, np.zeros(users.size, dtype=np.int64))

    def profiles(genre_of):
        return {
            m: MovieProfile(m, f"Movie {m}", {f"g{g}" for g in genres[j]}, {f"d{directors[m]}"})
            for m, j in enumerate(genre_of)
        }

    return ratings, profiles(range(N_MOVIES)), profiles(rng.permutation(N_MOVIES))


def _maes(ratings, method, profiles=None) -> list[float]:
    config = RunConfig(method=method, k_values=K_VALUES, workers=2)
    reports = run_experiment(ratings, config, profiles=profiles)
    assert [r.k for r in reports] == list(K_VALUES)
    return [r.mae for r in reports]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wpc_beats_pc_only_when_genres_carry_taste(seed):
    ratings, profiles, shuffled = planted_taste(seed, s=1.0)
    pc = _maes(ratings, "pc")
    planted = _maes(ratings, "wpc", profiles)
    assert all(w < p for w, p in zip(planted, pc)), (pc, planted)
    if seed == 0:  # one control run: three would take the module to about 15 s
        control = _maes(ratings, "wpc", shuffled)
        assert all(w >= p for w, p in zip(control, pc)), (pc, control)
