"""Command-line entry point: metadata fetching, profile building, evaluation, prediction.

Machine-readable output (the report CSV, the predicted value) goes to files
or stdout; progress and diagnostics go to stderr via logging. An optional
key=value config file supplies defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from collections import Counter
from pathlib import Path
from typing import get_args

from . import ingest
from .cf import Denominator, predict, select_neighbors
from .data import build_matrix
from .evaluation import Method, RunConfig, emit_report, run_experiment
from .weighting import K0Branch, WeightCalculator

logger = logging.getLogger(__name__)

ENDPOINT_ENV_VAR = "CONTENTCF_SPARQL_ENDPOINT"
DEFAULT_ENDPOINT = "https://dbpedia.org/sparql"


def _read_config_file(path: str, keys: tuple[str, ...], flags: dict) -> dict[str, object]:
    """Parse `key=value` lines; '#' starts a comment, blank lines are ignored. Each of ``keys``,
    the ones the command reads, may appear once; any other key is an error. Each value takes
    its flag's (``flags[key]``) type, then choices, so a bad one fails with its line."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {line!r}")
            key, _, value = map(str.strip, line.partition("="))
            if key not in keys:
                raise ValueError(f"{path}: line {lineno}: this command reads no key {key!r}")
            if key in first_line:
                raise ValueError(
                    f"{path}: line {lineno}: {key!r} given again (first on line {first_line[key]})"
                )
            first_line[key] = lineno
            action = flags[key]
            try:
                values[key] = parsed = value if action.type is None else action.type(value)
                if action.choices is not None and parsed not in action.choices:
                    raise ValueError(f"invalid choice {parsed!r}; expected one of {action.choices}")
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"{path}: line {lineno}: bad value for {key!r}: {exc}") from None
    return values


def _parse_k_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}; expected e.g. 5,10,20") from None


_RUN_KEYS = (
    "data-dir", "ratings", "profiles", "method", "k", "k0-branch", "denominator", "min-sim",
)
# The config-file keys each command reads.
_CONFIG_KEYS = {
    "fetch-metadata": ("endpoint",),
    "build-profiles": (),
    "evaluate": _RUN_KEYS + ("seed", "sample-test", "workers", "out"),
    "predict": _RUN_KEYS,
}


def _apply_config(args: argparse.Namespace, config: dict[str, object]) -> None:
    """Give each setting no flag gave its config-file value; flags override the file."""
    for key, value in config.items():
        dest = key.replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contentcf",
        description="Content-weighted user-based collaborative filtering on MovieLens data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override it")
    common.add_argument("--verbose", action="store_true", help="debug-level logging")

    p = sub.add_parser("fetch-metadata", parents=[common],
                       help="query the SPARQL endpoint for every movie's directors/actors")
    p.add_argument("--movies", required=True, help="movies.dat path")
    p.add_argument("--endpoint", help=f"SPARQL endpoint URL (or ${ENDPOINT_ENV_VAR})")
    p.add_argument("--out", required=True, help="output fetched-metadata file (JSON lines)")
    p.add_argument("--limit", type=int, help="fetch only the first N movies")
    p.add_argument("--concurrency", type=int, default=4, help="parallel requests (default 4)")
    p.add_argument("--retries", type=int, default=2, help="retries per request (default 2)")
    p.add_argument("--delay", type=float, default=0.1, help="politeness delay seconds (default 0.1)")

    p = sub.add_parser("build-profiles", parents=[common],
                       help="merge dataset genres, fetched metadata, and overrides into a profile file")
    p.add_argument("--movies", required=True, help="movies.dat path")
    p.add_argument("--fetched", help="fetched-metadata file from fetch-metadata")
    p.add_argument("--overrides", help="manual override file (JSON lines)")
    p.add_argument("--out", required=True, help="output profile file (JSON lines)")

    # The run settings evaluate and predict share.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--data-dir", help="directory containing ratings.dat")
    run.add_argument("--ratings", help="explicit ratings file path (overrides --data-dir)")
    run.add_argument("--profiles", help="profile file (required for --method wpc)")
    run.add_argument("--method", choices=get_args(Method), help="similarity method (default pc)")
    run.add_argument("--k0-branch", choices=get_args(K0Branch), dest="k0_branch",
                     help="zero-overlap weight branch (default mv)")
    run.add_argument("--denominator", choices=get_args(Denominator),
                     help="prediction denominator (default abs)")
    run.add_argument("--min-sim", type=float, dest="min_sim",
                     help="exclude neighbors below this similarity")

    p = sub.add_parser("evaluate", parents=[common, run],
                       help="cross-validated MAE over a (method, k) grid")
    p.add_argument("--k", type=_parse_k_list, dest="k", help="neighbor counts, e.g. 5,10,20,30,50")
    p.add_argument("--seed", type=int, help="fold-split seed (default 42)")
    p.add_argument("--sample-test", type=int, dest="sample_test",
                   help="evaluate a seeded subsample of each test fold")
    p.add_argument("--workers", type=int,
                   help="parallel workers (default: every CPU this process may run on)")
    p.add_argument("--out", help="report CSV path (default report.csv)")

    p = sub.add_parser("predict", parents=[common, run],
                       help="predict one user's rating for one movie, trained on the full file")
    p.add_argument("--user", required=True, type=int, help="active user id")
    p.add_argument("--item", required=True, type=int, help="target movie id")
    p.add_argument("--k", type=_parse_k_list, help="neighborhood size (default 50)")

    return parser


def _ratings_path(args) -> Path:
    if args.ratings:
        return Path(args.ratings)
    if not args.data_dir:
        raise SystemExit("error: --ratings or --data-dir is required")
    return Path(args.data_dir) / "ratings.dat"


def _require_file(path: Path) -> Path:
    if not path.is_file():
        raise SystemExit(f"error: file not found: {path}")
    return path


def _cmd_fetch_metadata(args) -> int:
    movies = ingest.parse_movies(_require_file(Path(args.movies)))
    endpoint = os.environ.get(ENDPOINT_ENV_VAR) or (
        DEFAULT_ENDPOINT if args.endpoint is None else args.endpoint
    )
    outcomes = ingest.fetch_all(
        movies,
        endpoint,
        concurrency=args.concurrency,
        retries=args.retries,
        delay=args.delay,
        limit=args.limit,
    )
    ingest.save_fetched(outcomes, args.out)
    counts = Counter(o.status for o in outcomes)
    logger.info(
        "wrote %d fetch records to %s (%d ok, %d not found, %d failed)",
        len(outcomes), args.out, counts["ok"], counts["not-found"], counts["failed"],
    )
    return 0


def _cmd_build_profiles(args) -> int:
    movies = ingest.parse_movies(_require_file(Path(args.movies)))
    fetched = ingest.load_fetched(_require_file(Path(args.fetched))) if args.fetched else None
    overrides = None
    if args.overrides:
        overrides = ingest.load_overrides(
            _require_file(Path(args.overrides)), known_items=set(movies)
        )
    store = ingest.assemble_profiles(movies, fetched=fetched, overrides=overrides)
    ingest.save_profiles(store, args.out)
    logger.info("wrote %d profiles to %s", len(store), args.out)
    return 0


def _run_config(args, **defaults) -> RunConfig:
    """The settings a flag or the config file gave, over ``defaults``;
    ``RunConfig`` holds every other default."""
    for field in dataclasses.fields(RunConfig):
        value = getattr(args, "k" if field.name == "k_values" else field.name, None)
        if value is not None:
            defaults[field.name] = value
    return RunConfig(**defaults)


def _load_profiles_if_needed(method: str, profiles_path: str | None):
    if method != "wpc":
        return None
    if not profiles_path:
        raise SystemExit("error: --method wpc requires --profiles")
    return ingest.load_profiles(_require_file(Path(profiles_path)))


def _cmd_evaluate(args) -> int:
    cfg = _run_config(args)
    ratings = ingest.parse_ratings(_require_file(_ratings_path(args)))
    profiles = _load_profiles_if_needed(cfg.method, args.profiles)
    logger.info(
        "evaluating method=%s k=%s seed=%d on %d ratings",
        cfg.method, list(cfg.k_values), cfg.seed, len(ratings),
    )
    reports = run_experiment(ratings, cfg, profiles=profiles)
    out = "report.csv" if args.out is None else args.out
    emit_report(reports, out)
    logger.info("report written to %s", out)
    return 0


def _cmd_predict(args) -> int:
    cfg = _run_config(args, k_values=(50,))
    if len(cfg.k_values) != 1:
        raise ValueError(f"predict takes one k, got {list(cfg.k_values)}")
    ratings = ingest.parse_ratings(_require_file(_ratings_path(args)))
    matrix = build_matrix(ratings)
    if not matrix.has_user(args.user):
        raise SystemExit(f"error: unknown user {args.user}")
    if not matrix.has_item(args.item):
        raise SystemExit(f"error: unknown item {args.item}")

    weights = None
    if cfg.method == "wpc":
        store = _load_profiles_if_needed(cfg.method, args.profiles)
        calc = WeightCalculator(store, k0_branch=cfg.k0_branch)
        weights = calc.weights_for(args.item, matrix.ratings_of(args.user).keys())
    neighbors = select_neighbors(
        args.user, args.item, matrix, cfg.k_values[0], weights=weights, min_sim=cfg.min_sim
    )
    result = predict(args.user, args.item, neighbors, matrix, denominator=cfg.denominator)
    logger.info(
        "neighbors=%d fallback=%s", result.n_neighbors, result.fallback,
    )
    print(f"{result.value:.4f}")
    return 0


_COMMANDS = {
    "fetch-metadata": _cmd_fetch_metadata,
    "build-profiles": _cmd_build_profiles,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
}


def main(argv: list[str] | None = None) -> int:
    args = (parser := build_parser()).parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.config:
            (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            flags = {o[2:]: a for a in sub.choices[args.command]._actions for o in a.option_strings}
            _apply_config(args, _read_config_file(args.config, _CONFIG_KEYS[args.command], flags))
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, argparse.ArgumentTypeError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
