"""Cross-validated MAE evaluation of the rating predictor.

The protocol: each movie's ratings are split (almost) equally across 5 folds;
each fold in turn is held out as the test set and every held-out rating is
predicted from the other four folds. Accuracy is mean absolute error, pooled
as total absolute error over total predictions.

The split builds the run's one ``RatingMatrix`` and labels each entry with a
fold. Held-out rows travel as entry indices of that matrix, in (user, item)
order, in one task list (fold, chunk) per run, 4 even chunks per fold and
worker, served in-process or by one worker pool. Each process builds a fold's
training matrix on its first task of that fold: the run's matrix with the fold
masked out, in its index space, where an id left without a training entry is
absent by its zero count. A task's rows are evaluated one user at a time, all
of the user's targets across the whole k grid: pc in array passes, wpc with a
ranking per row and a prediction per k. Results are reduced in task order, so
reports are identical for any worker count.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import logging
import multiprocessing
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Literal, Mapping, Sequence, get_args

import numpy as np

from .cf import EMPTY_RANKING, Denominator, NeighborSet, _plain_grid, predict, rank_candidates
from .data import (
    ItemId,
    Rating,
    RatingMatrix,
    UserId,
    _check_min_sim,
    _is_int,
    build_matrix,
    check_choice,
    usable_cpus,
)
from .weighting import K0Branch, WeightCalculator

logger = logging.getLogger(__name__)

N_FOLDS = 5

Method = Literal["pc", "wpc"]

# Domain separators so the fold and sampling RNG streams never collide.
_FOLD_STREAM = 0x0F01D
_SAMPLE_STREAM = 0x5A3D7


def _entropy_int(value) -> int:
    """A stable non-negative integer from a seed component or an opaque id."""
    if _is_int(value):
        return int(value) & 0xFFFFFFFFFFFFFFFF
    return zlib.crc32(str(value).encode("utf-8"))


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Seedable partition of a rating set's (user, item) pairs into the protocol's five folds.

    ``matrix`` holds every rating once; ``fold`` is the fold of each of its
    entries, in (user, item) order, from 0 to ``N_FOLDS - 1``.
    """

    seed: int
    matrix: RatingMatrix
    fold: np.ndarray

    def __post_init__(self) -> None:
        self.fold.flags.writeable = False

    @functools.cached_property
    def fold_of(self) -> Mapping[tuple[UserId, ItemId], int]:
        """Read-only {(user, item): fold} view, built on first use."""
        u_idx, i_idx, _ = self.matrix._entries(np.arange(self.matrix.n_ratings))
        users, items = self.matrix.users, self.matrix.items
        pairs = ((users[u], items[i]) for u, i in zip(u_idx.tolist(), i_idx.tolist()))
        return MappingProxyType(dict(zip(pairs, self.fold.tolist())))


def split_folds(ratings: Iterable[Rating], seed: int) -> FoldAssignment:
    """Assign each rating to one of ``N_FOLDS`` (five) folds, stratified per item.

    Every item's raters, in ascending user id, are shuffled by an RNG seeded
    from (seed, item) and dealt round-robin from a random starting fold, so
    per-item fold counts differ by at most one and the assignment depends
    only on the rating set and the seed, never on input order.
    """
    if not _is_int(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    matrix = build_matrix(ratings)
    fold = np.empty(matrix.n_ratings, dtype=np.int8)
    # The stable item-major order lists each item's raters in ascending user order.
    by_item = np.argsort(matrix._uitems, kind="stable")
    bounds = matrix._iptr.tolist()
    for item_id, lo, hi in zip(matrix.items, bounds, bounds[1:]):
        rng = np.random.default_rng([_FOLD_STREAM, _entropy_int(seed), _entropy_int(item_id)])
        perm = rng.permutation(hi - lo)
        start = int(rng.integers(N_FOLDS))
        fold[by_item[lo + perm]] = (start + np.arange(hi - lo)) % N_FOLDS
    return FoldAssignment(seed=seed, matrix=matrix, fold=fold)


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
    or a caller. ``workers=None`` uses every CPU this process may run on.
    """

    method: Method = "pc"
    k_values: tuple[int, ...] = (5, 10, 20, 30, 50)
    seed: int = 42
    k0_branch: K0Branch = "mv"
    denominator: Denominator = "abs"
    min_sim: float | None = None
    sample_test: int | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        check_choice("method", self.method, get_args(Method))
        check_choice("k0_branch", self.k0_branch, get_args(K0Branch))
        check_choice("denominator", self.denominator, get_args(Denominator))
        try:
            k_values = tuple(self.k_values)
        except TypeError:
            raise ValueError(f"k_values must be a sequence, got {self.k_values!r}") from None
        if not k_values:
            raise ValueError("k_values must be non-empty")
        if not all(_is_int(k) and k >= 1 for k in k_values):
            raise ValueError(f"every k must be an integer >= 1, got {self.k_values!r}")
        k_values = tuple(map(int, k_values))
        if len(set(k_values)) != len(k_values):
            raise ValueError(f"k_values must not repeat a value, got {k_values!r}")
        object.__setattr__(self, "k_values", k_values)
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        _check_min_sim(self.min_sim)
        for name in ("sample_test", "workers"):
            value = getattr(self, name)
            if value is not None and not (_is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1 or None, got {value!r}")

    @property
    def effective_workers(self) -> int:
        return self.workers or usable_cpus()


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


# -- evaluation core ------------------------------------------------------------

_worker: dict = {}


def _init_worker(evaluate) -> None:
    _worker["evaluate"] = evaluate


def _eval_chunk(task):
    return _worker["evaluate"](task)


def _fold_evaluator(folds: FoldAssignment, calculator, config: RunConfig):
    """The evaluator of tasks (fold, held-out entry indices of the run's matrix).
    It builds a fold's training matrix on its first task of that fold and keeps the latest;
    the one it drops is freed before the next is built, as cf's scan memo holds it weakly."""
    latest: dict[int, RatingMatrix] = {}

    def evaluate(task):
        f, held = task
        if f not in latest:
            latest.clear()
            # A fold holding every rating leaves an empty matrix: every row is skipped.
            latest[f] = folds.matrix._masked(folds.fold != f)
        return _eval_ratings(latest[f], calculator, config, folds.matrix._entries(held))

    return evaluate


def _eval_ratings(matrix: RatingMatrix, calculator: WeightCalculator | None, config, rows):
    """Predict a batch of held-out ratings: (user index, item index, value)
    arrays in the matrix's index space, one user's rows at a time.

    Returns arrays aligned to the rows: |error| per k, fallback flag per k,
    and whether the row was predicted. A skipped row (user absent from
    training) has error 0 and no fallback.
    """
    errors = np.zeros((len(config.k_values), rows[0].size))
    fallbacks = np.zeros(errors.shape, dtype=bool)
    predicted = np.zeros(rows[0].size, dtype=bool)
    grid = _plain_grid if calculator is None else functools.partial(_weighted_grid, calculator)
    users, items, actuals = rows
    cuts = (np.flatnonzero(np.diff(users)) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, users.size]):
        u = int(users[lo])
        if matrix._ucount[u]:
            predictions, fallbacks[:, lo:hi] = grid(
                matrix, u, items[lo:hi], config.k_values, config.denominator, config.min_sim
            )
            errors[:, lo:hi] = np.abs(actuals[lo:hi] - predictions)
            predicted[lo:hi] = True
    return errors, fallbacks, predicted


# Not in cf: it calls this module's rank_candidates and predict, the per-row API perfbench traces.
def _weighted_grid(calculator, matrix, aix, targets, k_values, denominator, min_sim):
    """Weighted predictions of user ``aix`` for item indices ``targets`` at every k, and
    their fallback flags, each shaped (k, target) as ``_plain_grid``'s: one ranking per
    target seen in training, then one ``predict`` per (target, k)."""
    user_id = matrix.users[aix]
    user_items = list(map(matrix.items.__getitem__, matrix._user_row(aix)[0].tolist()))
    values = np.empty((len(k_values), targets.size))
    fell = np.empty(values.shape, dtype=bool)
    for t, i in enumerate(targets.tolist()):
        item_id, ranked = matrix.items[i], EMPTY_RANKING
        if matrix._icount[i]:
            weights = calculator.weights_for(item_id, user_items)
            ranked = rank_candidates(user_id, item_id, matrix, weights=weights, min_sim=min_sim)
        for ki, k in enumerate(k_values):
            ns = NeighborSet(target_item=item_id, active_user=user_id, neighbors=ranked[:k])
            p = predict(user_id, item_id, ns, matrix, denominator=denominator)
            values[ki, t], fell[ki, t] = p.value, p.fallback
    return values, fell


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

    folds = split_folds(ratings, config.seed)
    if calculator is not None:
        unprofiled = [m for m in folds.matrix.items if not calculator.has_profile(m)]
        if unprofiled:
            raise ValueError(
                f"{len(unprofiled)} rated item(s) have no profile, "
                f"e.g. {', '.join(map(repr, unprofiled[:5]))}"
            )

    n_workers = config.effective_workers
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork: evaluate serially
        if n_workers > 1:
            logger.warning("no fork start method: evaluating serially, not with %d workers", n_workers)
        n_workers = 1
    cpus = usable_cpus()
    if n_workers > cpus:  # more processes than CPUs would only contend for them
        logger.warning("%d CPUs usable: evaluating with %d workers, not %d", cpus, cpus, n_workers)
        n_workers = cpus

    # Tasks in fold order; a fold's held-out entries are in (user, item) order.
    tasks = []
    for f in range(N_FOLDS):
        held = np.flatnonzero(folds.fold == f)
        if config.sample_test is not None and held.size > config.sample_test:
            rng = np.random.default_rng([_SAMPLE_STREAM, _entropy_int(config.seed), f])
            picked = rng.choice(held.size, size=config.sample_test, replace=False)
            held = held[np.sort(picked)]
        tasks += [(f, chunk) for chunk in np.array_split(held, 4 * n_workers) if chunk.size]

    evaluate = _fold_evaluator(folds, calculator, config)
    n_workers = min(n_workers, len(tasks))  # a fork pool forks every worker at the first submit
    if n_workers <= 1:
        return _reports(config, tasks, map(evaluate, tasks))
    # Fork hands the evaluator to the workers as it is, without pickling.
    with ProcessPoolExecutor(
        max_workers=n_workers, mp_context=ctx, initializer=_init_worker, initargs=(evaluate,)
    ) as pool:
        return _reports(config, tasks, pool.map(_eval_chunk, tasks))


def _reports(config: RunConfig, tasks, results) -> list[ExperimentReport]:
    """Reduce the results in task order, each fold when its last task returns."""
    n_k = len(config.k_values)
    empty = (np.zeros((n_k, 0)), np.zeros((n_k, 0), dtype=bool), np.zeros(0, dtype=bool))
    per_fold = []  # |error| sums per k, fallbacks per k, predictions, held-out rows, MAE per k
    for f, n_tasks in enumerate(np.bincount([f for f, _ in tasks], minlength=N_FOLDS).tolist()):
        # Chunks are consecutive, so the concatenation is aligned to the fold's rows.
        fold_results = itertools.islice(results, n_tasks)
        abs_err, fell, predicted = (np.concatenate(c, axis=-1) for c in zip(empty, *fold_results))
        n_pred, n_rows = int(predicted.sum()), predicted.size
        # Skipped rows hold 0, so these are the sums over the predicted rows.
        err_sums = np.sum(abs_err, axis=1)
        fold_mae = err_sums / (n_pred or np.nan)  # NaN for a fold without predictions
        per_fold.append((err_sums, fell.sum(axis=1), n_pred, n_rows, fold_mae))
        logger.info(
            "fold %d/%d (%s): %d predictions, %d skipped, mae per k %s",
            f + 1, N_FOLDS, config.method, n_pred, n_rows - n_pred,
            np.round(fold_mae, 4).tolist(),
        )

    err_sums, fallbacks, n_preds, n_held, fold_maes = (np.array(c) for c in zip(*per_fold))
    total = int(n_preds.sum())
    return [
        ExperimentReport(
            method=config.method, k=k, fold_maes=tuple(fold_maes[:, ki].tolist()),
            mae=float(err_sums[:, ki].sum() / total) if total else float("nan"),
            predictions=total, fallbacks=int(fallbacks[:, ki].sum()),
            skipped=int(n_held.sum()) - total,
        )
        for ki, k in enumerate(config.k_values)
    ]


# -- reporting -----------------------------------------------------------------


def format_comparison_grid(reports: Sequence[ExperimentReport]) -> str:
    """Plain-text grid: one row per neighbor count, one MAE column per method."""
    methods = list(dict.fromkeys(r.method for r in reports))
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


def emit_report(reports: Sequence[ExperimentReport], path) -> None:
    """Write the CSV report and print the comparison grid to stdout."""
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
    print(format_comparison_grid(reports), end="")
