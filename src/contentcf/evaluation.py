"""Cross-validated MAE evaluation of the rating predictor.

The protocol: each movie's ratings are split (almost) equally across 5 folds;
each fold in turn is held out as the test set and every held-out rating is
predicted from the other four folds. Accuracy is mean absolute error, pooled
as total absolute error over total predictions.

Evaluation is embarrassingly parallel over test ratings. Results are placed
into position-indexed arrays and reduced in (user, item) order, so reports
are identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import multiprocessing
import os
import sys
import zlib
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence, get_args

import numpy as np

from .cf import Denominator, NeighborSet, predict, rank_candidates
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


def _entropy_int(value) -> int:
    """A stable non-negative integer from a seed component or an opaque id."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value) & 0xFFFFFFFFFFFFFFFF
    return zlib.crc32(str(value).encode("utf-8"))


@dataclass(frozen=True)
class FoldAssignment:
    """Seedable per-item partition of (user, item) pairs into folds."""

    seed: int
    fold_of: dict[tuple[UserId, ItemId], int]
    n_folds: int = N_FOLDS


def split_folds(
    ratings: Sequence[Rating], seed: int, n_folds: int = N_FOLDS
) -> FoldAssignment:
    """Assign each rating to a fold, stratified per item.

    Every item's raters are shuffled by an RNG seeded from (seed, item) and
    dealt round-robin from a random starting fold, so per-item fold counts
    differ by at most one and the assignment depends only on the rating set
    and the seed, never on input order.
    """
    if not ratings:
        raise ValueError("cannot split an empty rating sequence")
    by_item: dict[ItemId, list[UserId]] = defaultdict(list)
    for r in ratings:
        by_item[r.item_id].append(r.user_id)

    fold_of: dict[tuple[UserId, ItemId], int] = {}
    for item_id, users in by_item.items():
        users = sorted(users)
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [_FOLD_STREAM, _entropy_int(seed), _entropy_int(item_id)]
            )
        )
        perm = rng.permutation(len(users))
        start = int(rng.integers(n_folds))
        for p, j in enumerate(perm):
            fold_of[(users[j], item_id)] = (start + p) % n_folds
    return FoldAssignment(seed=seed, fold_of=fold_of, n_folds=n_folds)


def _split_global(
    ratings: Sequence[Rating], seed: int, n_folds: int = N_FOLDS
) -> FoldAssignment:
    """Unstratified alternative: one global shuffle, dealt round-robin."""
    keys = sorted({(r.user_id, r.item_id) for r in ratings})
    rng = np.random.default_rng(
        np.random.SeedSequence([_GLOBAL_STREAM, _entropy_int(seed)])
    )
    perm = rng.permutation(len(keys))
    fold_of = {keys[j]: p % n_folds for p, j in enumerate(perm)}
    return FoldAssignment(seed=seed, fold_of=fold_of, n_folds=n_folds)


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
    profiles_path: str | None = None

    def __post_init__(self) -> None:
        check_choice("method", self.method, get_args(Method))
        check_choice("k0_branch", self.k0_branch, get_args(K0Branch))
        check_choice("denominator", self.denominator, get_args(Denominator))
        check_choice("split", self.split, get_args(SplitMode))
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        if any(k < 1 for k in self.k_values):
            raise ValueError("every k must be >= 1")
        object.__setattr__(self, "k_values", tuple(self.k_values))
        if self.min_sim is not None and not math.isfinite(self.min_sim):
            raise ValueError(f"min_sim must be a finite number, got {self.min_sim!r}")
        if self.sample_test is not None and self.sample_test < 1:
            raise ValueError("sample_test must be >= 1")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1 (or None for all cores)")

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

_worker: dict = {}


def _init_worker(matrix, calculator, config) -> None:
    _worker["matrix"] = matrix
    _worker["calculator"] = calculator
    _worker["config"] = config


def _eval_chunk(chunk: list[tuple[int, UserId, ItemId, float]]):
    return _eval_ratings(
        _worker["matrix"], _worker["calculator"], _worker["config"], chunk
    )


def _eval_ratings(
    matrix: RatingMatrix | None,
    calculator: WeightCalculator | None,
    config: RunConfig,
    chunk: list[tuple[int, UserId, ItemId, float]],
):
    """Predict a batch of held-out ratings.

    Returns position-aligned arrays: positions, |error| per k, fallback flag
    per k, and the positions that were skipped (user absent from training).
    """
    n_k = len(config.k_values)
    positions: list[int] = []
    errors = [[] for _ in range(n_k)]
    fallbacks = [[] for _ in range(n_k)]
    skipped: list[int] = []

    current_user: UserId | None = None
    user_items: list[ItemId] = []

    for pos, user_id, item_id, actual in chunk:
        if matrix is None or not matrix.has_user(user_id):
            skipped.append(pos)
            continue
        if config.method == "wpc" and user_id != current_user:
            current_user = user_id
            user_items = list(matrix.ratings_of(user_id).keys())

        if not matrix.has_item(item_id):
            ranked = []
        elif config.method == "wpc":
            weights = calculator.weights_for(item_id, user_items)
            ranked = rank_candidates(
                user_id, item_id, matrix, weights=weights, min_sim=config.min_sim
            )
        else:
            ranked = rank_candidates(user_id, item_id, matrix, min_sim=config.min_sim)

        positions.append(pos)
        for ki, k in enumerate(config.k_values):
            ns = NeighborSet(
                target_item=item_id, active_user=user_id, neighbors=tuple(ranked[:k])
            )
            p = predict(user_id, item_id, ns, matrix, denominator=config.denominator)
            errors[ki].append(abs(actual - p.value))
            fallbacks[ki].append(p.fallback)

    return (
        np.asarray(positions, dtype=np.int64),
        np.asarray(errors, dtype=np.float64),
        np.asarray(fallbacks, dtype=bool),
        np.asarray(skipped, dtype=np.int64),
    )


def _chunk_by_user(
    test: list[tuple[int, UserId, ItemId, float]], n_chunks: int
) -> list[list[tuple[int, UserId, ItemId, float]]]:
    """Split position-tagged test ratings into chunks on user boundaries."""
    groups: list[list[tuple[int, UserId, ItemId, float]]] = []
    for row in test:
        if groups and groups[-1][0][1] == row[1]:
            groups[-1].append(row)
        else:
            groups.append([row])
    target = max(1, len(test) // max(1, n_chunks))
    chunks: list[list[tuple[int, UserId, ItemId, float]]] = [[]]
    for g in groups:
        if chunks[-1] and len(chunks[-1]) >= target:
            chunks.append([])
        chunks[-1].extend(g)
    return [c for c in chunks if c]


def run_experiment(
    ratings: Sequence[Rating],
    config: RunConfig,
    profiles=None,
) -> list[ExperimentReport]:
    """Run the full cross-validation grid for one method over all k values.

    Deterministic given (ratings, config, profiles): the fold split, the
    optional per-fold test subsample, and the reduction order are all fixed
    by the seed, independent of worker count.
    """
    ratings = list(ratings)
    if config.method == "wpc" and profiles is None:
        raise ValueError("method 'wpc' requires movie profiles")

    if config.split == "global":
        folds = _split_global(ratings, config.seed)
    else:
        folds = split_folds(ratings, config.seed)

    n_k = len(config.k_values)
    fold_err_sums = np.zeros((folds.n_folds, n_k))
    fold_pred_counts = np.zeros(folds.n_folds, dtype=np.int64)
    fallback_counts = np.zeros(n_k, dtype=np.int64)
    skipped_total = 0

    for f in range(folds.n_folds):
        train = [r for r in ratings if folds.fold_of[(r.user_id, r.item_id)] != f]
        test = [r for r in ratings if folds.fold_of[(r.user_id, r.item_id)] == f]
        test.sort(key=lambda r: (r.user_id, r.item_id))
        if config.sample_test is not None and len(test) > config.sample_test:
            rng = np.random.default_rng(
                np.random.SeedSequence(
                    [_SAMPLE_STREAM, _entropy_int(config.seed), f]
                )
            )
            picked = rng.choice(len(test), size=config.sample_test, replace=False)
            test = [test[i] for i in np.sort(picked)]

        tagged = [(i, r.user_id, r.item_id, float(r.value)) for i, r in enumerate(test)]
        matrix = build_matrix(train) if train else None
        calculator = None
        if config.method == "wpc" and matrix is not None:
            calculator = WeightCalculator(profiles, k0_branch=config.k0_branch)

        n_workers = config.effective_workers
        abs_err = np.full((n_k, len(test)), np.nan)
        fell = np.zeros((n_k, len(test)), dtype=bool)
        predicted = np.zeros(len(test), dtype=bool)

        def _absorb(result) -> None:
            positions, errors, fallbacks, skipped_pos = result
            if positions.size:
                abs_err[:, positions] = errors
                fell[:, positions] = fallbacks
                predicted[positions] = True

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork: evaluate serially
            ctx = None
        if ctx is None or n_workers <= 1 or len(test) < 2 * n_workers:
            _absorb(_eval_ratings(matrix, calculator, config, tagged))
        else:
            chunks = _chunk_by_user(tagged, n_chunks=4 * n_workers)
            with ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(matrix, calculator, config),
            ) as pool:
                for result in pool.map(_eval_chunk, chunks):
                    _absorb(result)

        n_pred = int(predicted.sum())
        fold_pred_counts[f] = n_pred
        skipped_total += len(test) - n_pred
        if n_pred:
            fold_err_sums[f] = np.nansum(abs_err, axis=1)
            fallback_counts += fell.sum(axis=1)
        fold_mae = fold_err_sums[f] / n_pred if n_pred else np.full(n_k, np.nan)
        logger.info(
            "fold %d/%d (%s): %d predictions, %d skipped, mae per k %s",
            f + 1,
            folds.n_folds,
            config.method,
            n_pred,
            len(test) - n_pred,
            np.round(fold_mae, 4).tolist(),
        )

    total_preds = int(fold_pred_counts.sum())
    reports = []
    for ki, k in enumerate(config.k_values):
        fold_maes = tuple(
            float(fold_err_sums[f, ki] / fold_pred_counts[f])
            if fold_pred_counts[f]
            else float("nan")
            for f in range(folds.n_folds)
        )
        pooled = (
            float(fold_err_sums[:, ki].sum() / total_preds) if total_preds else float("nan")
        )
        reports.append(
            ExperimentReport(
                method=config.method,
                k=k,
                fold_maes=fold_maes,
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
