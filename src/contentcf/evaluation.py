"""Cross-validated MAE evaluation of the rating predictor.

The protocol: each movie's ratings are split (almost) equally across 5 folds;
each fold in turn is held out as the test set and every held-out rating is
predicted from the other four folds. Accuracy is mean absolute error, pooled
as total absolute error over total predictions.

The split builds the run's one ``RatingMatrix`` and labels each entry with a
fold. A fold's held-out rows are its entries, in (user, item) order; its
training set is the sub-matrix of the other entries. Batches of rows are
evaluated in parallel into arrays aligned to the rows and reduced in that
order, so reports are identical for any worker count.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import math
import multiprocessing
import numbers
import os
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Literal, Mapping, Sequence, get_args

import numpy as np

from .cf import EMPTY_RANKING, Denominator, NeighborSet, predict, rank_candidates
from .data import ItemId, Rating, RatingMatrix, UserId, build_matrix, check_choice
from .weighting import K0Branch, WeightCalculator

logger = logging.getLogger(__name__)

N_FOLDS = 5

Method = Literal["pc", "wpc"]
SplitMode = Literal["per-item", "global"]

# Domain separators so the fold, sampling, and global-split RNG streams never collide.
_FOLD_STREAM = 0x0F01D
_SAMPLE_STREAM = 0x5A3D7
_GLOBAL_STREAM = 0x6C0BA


def _is_int(value) -> bool:
    """A Python or numpy integer; bool is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _entropy_int(value) -> int:
    """A stable non-negative integer from a seed component or an opaque id."""
    if _is_int(value):
        return int(value) & 0xFFFFFFFFFFFFFFFF
    return zlib.crc32(str(value).encode("utf-8"))


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Seedable partition of a rating set's (user, item) pairs into folds.

    ``matrix`` holds every rating once; ``fold`` is the fold of each of its
    entries, in (user, item) order.
    """

    seed: int
    matrix: RatingMatrix
    fold: np.ndarray
    n_folds: int = N_FOLDS

    def __post_init__(self) -> None:
        self.fold.flags.writeable = False

    @functools.cached_property
    def fold_of(self) -> Mapping[tuple[UserId, ItemId], int]:
        """Read-only {(user, item): fold} view, built on first use."""
        u_idx, i_idx, _ = self.matrix._entries()
        users, items = self.matrix.users, self.matrix.items
        pairs = ((users[u], items[i]) for u, i in zip(u_idx.tolist(), i_idx.tolist()))
        return MappingProxyType(dict(zip(pairs, self.fold.tolist())))


def split_folds(
    ratings: Iterable[Rating], seed: int, n_folds: int = N_FOLDS
) -> FoldAssignment:
    """Assign each rating to a fold, stratified per item.

    Every item's raters, in ascending user id, are shuffled by an RNG seeded
    from (seed, item) and dealt round-robin from a random starting fold, so
    per-item fold counts differ by at most one and the assignment depends
    only on the rating set and the seed, never on input order.
    """
    if not 1 <= n_folds <= np.iinfo(np.int8).max:
        raise ValueError(f"n_folds must be in [1, 127], got {n_folds}")
    matrix = build_matrix(ratings)
    fold = np.empty(matrix.n_ratings, dtype=np.int8)
    # Entries grouped by item, each item's raters in ascending user order.
    by_item = np.argsort(matrix._uitems, kind="stable")
    bounds = matrix._iptr.tolist()
    for item_id, lo, hi in zip(matrix.items, bounds, bounds[1:]):
        rng = np.random.default_rng([_FOLD_STREAM, _entropy_int(seed), _entropy_int(item_id)])
        perm = rng.permutation(hi - lo)
        start = int(rng.integers(n_folds))
        fold[by_item[lo + perm]] = (start + np.arange(hi - lo)) % n_folds
    return FoldAssignment(seed=seed, matrix=matrix, fold=fold, n_folds=n_folds)


def _split_global(
    ratings: Iterable[Rating], seed: int, n_folds: int = N_FOLDS
) -> FoldAssignment:
    """Unstratified alternative: one global shuffle, dealt round-robin."""
    if not 1 <= n_folds <= np.iinfo(np.int8).max:
        raise ValueError(f"n_folds must be in [1, 127], got {n_folds}")
    matrix = build_matrix(ratings)
    rng = np.random.default_rng([_GLOBAL_STREAM, _entropy_int(seed)])
    fold = np.empty(matrix.n_ratings, dtype=np.int8)
    fold[rng.permutation(fold.size)] = np.arange(fold.size) % n_folds
    return FoldAssignment(seed=seed, matrix=matrix, fold=fold, n_folds=n_folds)


def mae(pairs: Iterable[tuple[float, float]]) -> float:
    """Mean absolute error over (actual, predicted) pairs."""
    errors = [abs(actual - predicted) for actual, predicted in pairs]
    if not errors:
        raise ValueError("MAE of an empty pair sequence is undefined")
    return float(np.mean(errors))


@dataclass(frozen=True)
class RunConfig:
    """Everything an evaluation run depends on besides the data itself.

    Every field is checked here, whether it came from a flag, a config file
    or a caller. ``workers=None`` uses every core.
    """

    method: Method = "pc"
    k_values: tuple[int, ...] = (5, 10, 20, 30, 50)
    seed: int = 42
    k0_branch: K0Branch = "mv"
    denominator: Denominator = "abs"
    min_sim: float | None = None
    sample_test: int | None = None
    workers: int | None = None
    split: SplitMode = "per-item"

    def __post_init__(self) -> None:
        check_choice("method", self.method, get_args(Method))
        check_choice("k0_branch", self.k0_branch, get_args(K0Branch))
        check_choice("denominator", self.denominator, get_args(Denominator))
        check_choice("split", self.split, get_args(SplitMode))
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        if not all(_is_int(k) and k >= 1 for k in self.k_values):
            raise ValueError(f"every k must be an integer >= 1, got {self.k_values!r}")
        k_values = tuple(int(k) for k in self.k_values)
        if len(set(k_values)) != len(k_values):
            raise ValueError(f"k_values must not repeat a value, got {k_values!r}")
        object.__setattr__(self, "k_values", k_values)
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        real = isinstance(self.min_sim, numbers.Real) and not isinstance(self.min_sim, bool)
        if self.min_sim is not None and not (real and math.isfinite(self.min_sim)):
            raise ValueError(f"min_sim must be a finite number, got {self.min_sim!r}")
        for name in ("sample_test", "workers"):
            value = getattr(self, name)
            if value is not None and not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1 or None, got {value!r}")

    @property
    def effective_workers(self) -> int:
        return self.workers if self.workers else (os.cpu_count() or 1)


@dataclass(frozen=True)
class ExperimentReport:
    """MAE of one (method, k) cell, with per-fold detail and prediction counts."""

    method: str
    k: int
    fold_maes: tuple[float, ...]
    mae: float  # pooled: total absolute error / total predictions
    predictions: int
    fallbacks: int
    skipped: int


# -- per-fold evaluation core --------------------------------------------------

Rows = tuple[list[UserId], list[ItemId], list[float]]  # user, item, actual rating

_worker: dict = {}


def _init_worker(matrix, calculator, config) -> None:
    _worker.update(matrix=matrix, calculator=calculator, config=config)


def _eval_chunk(rows: Rows):
    return _eval_ratings(rows=rows, **_worker)


def _eval_ratings(
    matrix: RatingMatrix,
    calculator: WeightCalculator | None,
    config: RunConfig,
    rows: Rows,
):
    """Predict a batch of held-out ratings.

    Returns arrays aligned to the rows: |error| per k, fallback flag per k,
    and whether the row was predicted. A skipped row (user absent from
    training) has error 0 and no fallback.
    """
    users, items, actuals = rows
    errors = np.zeros((len(config.k_values), len(actuals)))
    fallbacks = np.zeros(errors.shape, dtype=bool)
    predicted = np.zeros(len(actuals), dtype=bool)

    current_user: UserId | None = None
    user_items: list[ItemId] = []

    for row, (user_id, item_id, actual) in enumerate(zip(users, items, actuals)):
        if not matrix.has_user(user_id):
            continue
        if config.method == "wpc" and user_id != current_user:
            current_user = user_id
            user_items = list(matrix.ratings_of(user_id).keys())

        if not matrix.has_item(item_id):
            ranked = EMPTY_RANKING
        elif config.method == "wpc":
            weights = calculator.weights_for(item_id, user_items)
            ranked = rank_candidates(
                user_id, item_id, matrix, weights=weights, min_sim=config.min_sim
            )
        else:
            ranked = rank_candidates(user_id, item_id, matrix, min_sim=config.min_sim)

        predicted[row] = True
        for ki, k in enumerate(config.k_values):
            ns = NeighborSet(target_item=item_id, active_user=user_id, neighbors=ranked[:k])
            p = predict(user_id, item_id, ns, matrix, denominator=config.denominator)
            errors[ki, row] = abs(actual - p.value)
            fallbacks[ki, row] = p.fallback

    return errors, fallbacks, predicted


def _chunk_bounds(user_rows: np.ndarray, n_chunks: int) -> list[int]:
    """Cut points of consecutive chunks of about len/n_chunks rows, cut only
    where the user changes; ``user_rows`` is each row's user, grouped."""
    target = max(1, user_rows.size // max(1, n_chunks))
    cuts = [0]
    for start in (np.flatnonzero(np.diff(user_rows)) + 1).tolist():
        if start - cuts[-1] >= target:
            cuts.append(start)
    return cuts + [user_rows.size]


def run_experiment(
    ratings: Iterable[Rating],
    config: RunConfig,
    profiles=None,
) -> list[ExperimentReport]:
    """Run the full cross-validation grid for one method over all k values.

    Deterministic given (ratings, config, profiles): the fold split, the
    optional per-fold test subsample, and the reduction order are all fixed
    by the seed, independent of worker count.
    """
    calculator = None
    if config.method == "wpc":
        if profiles is None:
            raise ValueError("method 'wpc' requires movie profiles")
        calculator = WeightCalculator(profiles, k0_branch=config.k0_branch)

    split = _split_global if config.split == "global" else split_folds
    folds = split(ratings, config.seed)
    full = folds.matrix
    if calculator is not None:
        unprofiled = [m for m in full.items if not calculator.has_profile(m)]
        if unprofiled:
            raise ValueError(
                f"{len(unprofiled)} rated item(s) have no profile, "
                f"e.g. {', '.join(map(repr, unprofiled[:5]))}"
            )
    entry_users, entry_items, entry_values = full._entries()

    n_k = len(config.k_values)
    fold_err_sums = np.zeros((folds.n_folds, n_k))
    fold_maes = np.zeros((folds.n_folds, n_k))
    fold_pred_counts = np.zeros(folds.n_folds, dtype=np.int64)
    fallback_counts = np.zeros(n_k, dtype=np.int64)
    skipped_total = 0

    for f in range(folds.n_folds):
        in_fold = folds.fold == f
        # Held-out entries, already in (user, item) order.
        held = np.flatnonzero(in_fold)
        if config.sample_test is not None and held.size > config.sample_test:
            rng = np.random.default_rng([_SAMPLE_STREAM, _entropy_int(config.seed), f])
            picked = rng.choice(held.size, size=config.sample_test, replace=False)
            held = held[np.sort(picked)]

        user_rows = entry_users[held]
        rows: Rows = (
            [full.users[u] for u in user_rows.tolist()],
            [full.items[i] for i in entry_items[held].tolist()],
            entry_values[held].tolist(),
        )
        # A fold holding every rating leaves an empty matrix: every row is skipped.
        matrix = full._masked(~in_fold)

        n_workers = config.effective_workers
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork: evaluate serially
            ctx = None
        if ctx is None or n_workers <= 1 or held.size < 2 * n_workers:
            results = [_eval_ratings(matrix, calculator, config, rows)]
        else:
            cuts = _chunk_bounds(user_rows, n_chunks=4 * n_workers)
            chunks = [tuple(col[lo:hi] for col in rows) for lo, hi in zip(cuts, cuts[1:])]
            with ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(matrix, calculator, config),
            ) as pool:
                results = list(pool.map(_eval_chunk, chunks))
        # Chunks are consecutive and map keeps their order, so the
        # concatenation is aligned to the fold's rows.
        abs_err, fell, predicted = (np.concatenate(c, axis=-1) for c in zip(*results))

        n_pred = int(predicted.sum())
        fold_pred_counts[f] = n_pred
        skipped_total += held.size - n_pred
        # Skipped rows hold 0, so these are the sums over the predicted rows.
        fold_err_sums[f] = np.sum(abs_err, axis=1)
        fallback_counts += fell.sum(axis=1)
        fold_maes[f] = fold_err_sums[f] / n_pred if n_pred else np.nan
        logger.info(
            "fold %d/%d (%s): %d predictions, %d skipped, mae per k %s",
            f + 1, folds.n_folds, config.method, n_pred, held.size - n_pred,
            np.round(fold_maes[f], 4).tolist(),
        )

    total_preds = int(fold_pred_counts.sum())
    reports = []
    for ki, k in enumerate(config.k_values):
        pooled = (
            float(fold_err_sums[:, ki].sum() / total_preds) if total_preds else float("nan")
        )
        reports.append(
            ExperimentReport(
                method=config.method,
                k=k,
                fold_maes=tuple(fold_maes[:, ki].tolist()),
                mae=pooled,
                predictions=total_preds,
                fallbacks=int(fallback_counts[ki]),
                skipped=skipped_total,
            )
        )
    return reports


# -- reporting -----------------------------------------------------------------


def format_comparison_grid(reports: Sequence[ExperimentReport]) -> str:
    """Plain-text grid: one row per neighbor count, one MAE column per method."""
    methods = []
    for r in reports:
        if r.method not in methods:
            methods.append(r.method)
    cells = {(r.method, r.k): r.mae for r in reports}
    ks = sorted({r.k for r in reports})

    out = io.StringIO()
    header = ["Number of Neighbours"] + [m.upper() for m in methods]
    widths = [max(len(header[0]), 8)] + [max(len(h), 8) for h in header[1:]]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for k in ks:
        row = [str(k).ljust(widths[0])]
        for m, w in zip(methods, widths[1:]):
            value = cells.get((m, k))
            row.append(("-" if value is None else f"{value:.4f}").ljust(w))
        out.write("  ".join(row).rstrip() + "\n")
    return out.getvalue()


def emit_report(
    reports: Sequence[ExperimentReport], path, grid_stream=None
) -> None:
    """Write the CSV report and print the comparison grid."""
    if not reports:
        raise ValueError("no reports to emit")
    n_folds = len(reports[0].fold_maes)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "k"]
            + [f"fold{i}" for i in range(n_folds)]
            + ["mae", "predictions", "fallbacks", "skipped"]
        )
        for r in reports:
            writer.writerow(
                [r.method, r.k]
                + [f"{m:.4f}" for m in r.fold_maes]
                + [f"{r.mae:.4f}", r.predictions, r.fallbacks, r.skipped]
            )
    print(format_comparison_grid(reports), file=grid_stream or sys.stdout, end="")
