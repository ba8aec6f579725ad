"""Shared fixtures, hypothesis strategies, and acceptance-line reporting."""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest
from hypothesis import strategies as st

from contentcf.data import MovieProfile, Rating

_ACCEPT_RE = re.compile(r"test_acceptance\.py::(?:[\w\[\]./-]+::)?(test_criterion_[\w\[\]./-]+)")


def pytest_runtest_logreport(report):
    """One PASS/FAIL/SKIP line per acceptance criterion test."""
    match = _ACCEPT_RE.search(report.nodeid)
    if not match:
        return
    if report.when == "call" or (report.when == "setup" and report.skipped):
        status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
        print(f"\n[acceptance] {match.group(1)}: {status}")

# Where the full MovieLens-1M files live, for dataset-scale tests.
ML1M_ENV_VAR = "ML1M_DIR"


def ml1m_dir() -> Path | None:
    candidates = []
    env = os.environ.get(ML1M_ENV_VAR)
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "ml-1m")
    for c in candidates:
        if (c / "ratings.dat").is_file():
            return c
    return None


requires_ml1m = pytest.mark.skipif(
    ml1m_dir() is None,
    reason=f"MovieLens-1M dataset not found (set {ML1M_ENV_VAR} or place it in data/ml-1m)",
)


@st.composite
def rating_triples(draw, max_users=8, max_items=8, min_ratings=1, max_ratings=40):
    """Random (user, item, value) triples with unique (user, item) pairs."""
    pairs = draw(
        st.sets(
            st.tuples(st.integers(1, max_users), st.integers(101, 100 + max_items)),
            min_size=min_ratings,
            max_size=min(max_ratings, max_users * max_items),
        )
    )
    pairs = sorted(pairs)
    values = draw(
        st.lists(st.integers(1, 5), min_size=len(pairs), max_size=len(pairs))
    )
    return [(u, i, v) for (u, i), v in zip(pairs, values)]


def as_ratings(triples) -> list[Rating]:
    return [Rating(user_id=u, item_id=i, value=v) for u, i, v in triples]


# ``contentcf.cf._LONG`` at these values makes ``_segments`` join every call's slices slice
# by slice, or through one index, whatever their lengths.
JOINS = {"slices": 0, "index": 1 << 62}


@pytest.fixture
def toy_ratings() -> list[Rating]:
    """Seven ratings over three users and three items; small enough to hand-check."""
    return as_ratings(
        [
            (1, 10, 4),
            (1, 20, 2),
            (2, 10, 5),
            (2, 30, 3),
            (3, 10, 1),
            (3, 20, 5),
            (3, 30, 3),
        ]
    )


@pytest.fixture
def worked_example_profiles() -> tuple[MovieProfile, MovieProfile]:
    """The genre/director/actor pair whose trimmed vectors are the golden case."""
    m = MovieProfile(
        item_id="M",
        title="movie M",
        genres={"G1", "G2"},
        directors={"D1", "D2"},
        actors={"A1", "A2", "A3"},
    )
    t = MovieProfile(
        item_id="T",
        title="movie T",
        genres={"G1", "G2", "G3"},
        directors={"D3"},
        actors={"A2", "A3"},
    )
    return m, t
