"""Deterministic synthetic MovieLens-style inputs for the protocol benchmark.

Two shapes are fixed here, once, and must not be tuned to flatter a change:

- ``ml1m``: the MovieLens-1M shape, 6040 users x 3706 movies, about 1M
  ratings.
- ``desk``: the same generator scaled down to 300 users x 900 movies, small
  enough that the full 5-fold protocol, every held-out rating predicted, runs
  in 5-18 s on one core (pc faster than wpc).

Both use the same distributions: Zipf item popularity, lognormal user
activity with a floor of 20 ratings per user (the same activity profile for
every seed, dealt to users in a seeded order), 1-3 genres per movie, and
director and actor blocks on most movies (actors drawn from a Zipf pool, so
popular actors are shared across many movies). Ratings come from a small
latent-factor taste model. Profiles are drawn independently of taste, so
content weighting carries no signal here: wpc scores worse than pc on this
data, as expected. The MAE is a correctness fingerprint, not a quality claim.

The files are written in the package's own formats (``ratings.dat``,
``movies.dat``, ``profiles.jsonl``) so the benchmark parses real files, and
are cached by (shape, seed). The same seed gives the same bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

FILES = ("ratings.dat", "movies.dat", "profiles.jsonl")

# MovieLens-1M's 18 labels with a rough frequency prior (Drama, Comedy lead).
GENRES = (
    ("Action", 5), ("Adventure", 3), ("Animation", 1), ("Children's", 2),
    ("Comedy", 12), ("Crime", 2), ("Documentary", 1), ("Drama", 15),
    ("Fantasy", 1), ("Film-Noir", 1), ("Horror", 3), ("Musical", 1),
    ("Mystery", 1), ("Romance", 4), ("Sci-Fi", 2), ("Thriller", 5),
    ("War", 1), ("Western", 1),
)

_STD_NORMAL = NormalDist()
_SHAPE_STREAM = {"ml1m": 0x1A11, "desk": 0xDE5C}


@dataclass(frozen=True)
class Shape:
    n_users: int
    n_items: int
    median_activity: float  # lognormal median of ratings per user
    activity_sigma: float
    min_activity: int = 20
    item_zipf: float = 0.9
    latent_dim: int = 5
    director_share: float = 0.9  # movies with a director block
    actor_share: float = 0.85  # movies with an actor block


SHAPES = {
    # Median 96 and sigma 1.04 give ML-1M's ~165 ratings per user on average.
    "ml1m": Shape(n_users=6040, n_items=3706, median_activity=96.0, activity_sigma=1.04),
    "desk": Shape(n_users=300, n_items=900, median_activity=24.0, activity_sigma=1.04),
}


def _rng(shape_name: str, seed: int, part: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([_SHAPE_STREAM[shape_name], int(seed), part])
    )


def _ratings(shape_name: str, shape: Shape, seed: int) -> list[str]:
    rng = _rng(shape_name, seed, 1)
    n_u, n_i = shape.n_users, shape.n_items
    # Activities are the lognormal's n_u evenly spaced quantiles, dealt to
    # users in a seeded order: every seed has the same activity profile and
    # rating count, so run-to-run work does not drift with the seed.
    z = np.array([_STD_NORMAL.inv_cdf((u + 0.5) / n_u) for u in range(n_u)])
    activity = np.exp(np.log(shape.median_activity) + shape.activity_sigma * z)
    activity = np.clip(np.rint(activity), shape.min_activity, int(0.6 * n_i)).astype(int)
    activity = activity[rng.permutation(n_u)]

    # Item identities are a random permutation of popularity ranks.
    popularity = 1.0 / np.arange(1, n_i + 1) ** shape.item_zipf
    log_p = np.log(popularity[rng.permutation(n_i)])

    user_bias = rng.normal(0.0, 0.45, size=n_u)
    item_bias = rng.normal(0.0, 0.5, size=n_i)
    user_f = rng.normal(0.0, 0.35, size=(n_u, shape.latent_dim))
    item_f = rng.normal(0.0, 0.35, size=(n_i, shape.latent_dim))

    lines: list[str] = []
    t0 = 956703932
    for u in range(n_u):
        # Gumbel top-n: n distinct items drawn with probability ~ popularity.
        keys = log_p + rng.gumbel(size=n_i)
        items = np.sort(np.argpartition(-keys, activity[u])[: activity[u]])
        score = (
            3.58 + user_bias[u] + item_bias[items] + item_f[items] @ user_f[u]
            + rng.normal(0.0, 0.7, size=items.size)
        )
        values = np.clip(np.rint(score), 1, 5).astype(int)
        stamps = t0 + np.cumsum(rng.integers(1, 4000, size=items.size))
        uid = u + 1
        lines.extend(
            f"{uid}::{i + 1}::{v}::{t}"
            for i, v, t in zip(items.tolist(), values.tolist(), stamps.tolist())
        )
    return lines


def _catalog(shape_name: str, shape: Shape, seed: int) -> tuple[list[str], list[str]]:
    """movies.dat lines and profiles.jsonl lines, drawn independently of taste."""
    rng = _rng(shape_name, seed, 2)
    n_i = shape.n_items
    names = [g for g, _ in GENRES]
    prior = np.array([w for _, w in GENRES], dtype=float)
    prior /= prior.sum()
    n_directors = max(1, n_i // 3)
    n_actors = 2 * n_i
    actor_p = 1.0 / np.arange(1, n_actors + 1) ** 0.8
    actor_p /= actor_p.sum()

    movies: list[str] = []
    profiles: list[tuple[str, str]] = []
    for j in range(n_i):
        item_id = j + 1
        title = f"Movie {item_id:05d} ({1930 + int(rng.integers(0, 71))})"
        genres = sorted(
            names[g] for g in rng.choice(len(names), size=int(rng.integers(1, 4)),
                                         replace=False, p=prior)
        )
        directors: list[str] = []
        if rng.random() < shape.director_share:
            n_d = 2 if rng.random() < 0.05 else 1
            directors = sorted(
                f"Director {d:05d}" for d in rng.choice(n_directors, size=n_d, replace=False)
            )
        actors: list[str] = []
        if rng.random() < shape.actor_share:
            n_a = int(rng.integers(2, 8))
            actors = sorted(
                f"Actor {a:05d}"
                for a in rng.choice(n_actors, size=n_a, replace=False, p=actor_p)
            )
        movies.append(f"{item_id}::{title}::{'|'.join(genres)}")
        record = {
            "item_id": item_id,
            "title": title,
            "genres": genres,
            "directors": directors,
            "actors": actors,
            "source": "linked-data" if directors or actors else "dataset",
        }
        # The same record layout and order as contentcf.ingest.save_profiles.
        profiles.append(
            (str(item_id),
             json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ":")))
        )
    profiles.sort()
    return movies, [line for _, line in profiles]


def write_inputs(shape_name: str, seed: int, out_dir: Path) -> None:
    """Write the three input files for (shape, seed) into ``out_dir``."""
    shape = SHAPES[shape_name]
    out_dir.mkdir(parents=True, exist_ok=True)
    movies, profiles = _catalog(shape_name, shape, seed)
    contents = {
        "ratings.dat": _ratings(shape_name, shape, seed),
        "movies.dat": movies,
        "profiles.jsonl": profiles,
    }
    for name in FILES:
        encoding = "latin-1" if name == "movies.dat" else "utf-8"
        with open(out_dir / name, "w", encoding=encoding, newline="\n") as fh:
            fh.write("\n".join(contents[name]) + "\n")


def cached_inputs(shape_name: str, seed: int, cache_root: Path, keep: int = 4) -> Path:
    """The input directory for (shape, seed), generated on first use.

    Generation writes to a temporary directory that is renamed into place, so
    an interrupted run never leaves a partial set behind. Only the ``keep``
    most recently used sets per shape are kept.
    """
    cache_root.mkdir(parents=True, exist_ok=True)
    target = cache_root / f"{shape_name}-{seed}"
    if not all((target / f).is_file() for f in FILES):
        tmp = Path(tempfile.mkdtemp(prefix=f".{shape_name}-{seed}-", dir=cache_root))
        try:
            write_inputs(shape_name, seed, tmp)
            shutil.rmtree(target, ignore_errors=True)
            os.replace(tmp, target)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(target)
    sets = sorted(
        (p for p in cache_root.glob(f"{shape_name}-*") if p.is_dir()),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for stale in sets[keep:]:
        shutil.rmtree(stale, ignore_errors=True)
    return target
