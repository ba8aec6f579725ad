"""Command-line entry point: metadata fetching, profile building, evaluation, prediction.

Machine-readable output (the report CSV, the predicted value) goes to files
or stdout; progress and diagnostics go to stderr via logging. An optional
key=value config file supplies defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import get_args

from . import ingest
from .cf import Denominator, predict, select_neighbors
from .data import build_matrix
from .evaluation import Method, RunConfig, SplitMode, emit_report, run_experiment
from .weighting import K0Branch, WeightCalculator

logger = logging.getLogger(__name__)

ENDPOINT_ENV_VAR = "CONTENTCF_SPARQL_ENDPOINT"
DEFAULT_ENDPOINT = "https://dbpedia.org/sparql"


def _read_config_file(path: str) -> dict[str, str]:
    """Parse `key=value` lines; '#' starts a comment, blank lines are ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _setting(args: argparse.Namespace, config: dict[str, str], name: str, default=None):
    """Flag value if given, else config-file value, else default."""
    flag_value = getattr(args, name.replace("-", "_"), None)
    if flag_value is not None:
        return flag_value
    if name in config:
        return config[name]
    return default


def _parse_k_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad k list {text!r}; expected e.g. 5,10,20") from None


def _endpoint(args: argparse.Namespace, config: dict[str, str]) -> str:
    env = os.environ.get(ENDPOINT_ENV_VAR)
    if env:
        return env
    return _setting(args, config, "endpoint", DEFAULT_ENDPOINT)


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

    p = sub.add_parser("evaluate", parents=[common],
                       help="cross-validated MAE over a (method, k) grid")
    p.add_argument("--data-dir", help="directory containing ratings.dat")
    p.add_argument("--ratings", help="explicit ratings file path (overrides --data-dir)")
    p.add_argument("--profiles", help="profile file (required for --method wpc)")
    p.add_argument("--method", choices=get_args(Method), help="similarity method (default pc)")
    p.add_argument("--k", type=_parse_k_list, dest="k", help="neighbor counts, e.g. 5,10,20,30,50")
    p.add_argument("--seed", type=int, help="fold-split seed (default 42)")
    p.add_argument("--k0-branch", choices=get_args(K0Branch), dest="k0_branch",
                   help="zero-overlap weight branch (default mv)")
    p.add_argument("--denominator", choices=get_args(Denominator),
                   help="prediction denominator (default abs)")
    p.add_argument("--min-sim", type=float, dest="min_sim", help="exclude neighbors below this similarity")
    p.add_argument("--sample-test", type=int, dest="sample_test",
                   help="evaluate a seeded subsample of each test fold")
    p.add_argument("--split", choices=get_args(SplitMode), help="fold split policy (default per-item)")
    p.add_argument("--workers", type=int, help="parallel workers (default: all cores)")
    p.add_argument("--out", help="report CSV path (default report.csv)")

    p = sub.add_parser("predict", parents=[common],
                       help="predict one user's rating for one movie, trained on the full file")
    p.add_argument("--data-dir", help="directory containing ratings.dat")
    p.add_argument("--ratings", help="explicit ratings file path (overrides --data-dir)")
    p.add_argument("--profiles", help="profile file (required for --method wpc)")
    p.add_argument("--method", choices=get_args(Method), help="similarity method (default pc)")
    p.add_argument("--user", required=True, type=int, help="active user id")
    p.add_argument("--item", required=True, type=int, help="target movie id")
    p.add_argument("--k", type=int, help="neighborhood size (default 50)")
    p.add_argument("--k0-branch", choices=get_args(K0Branch), dest="k0_branch")
    p.add_argument("--denominator", choices=get_args(Denominator))
    p.add_argument("--min-sim", type=float, dest="min_sim")

    return parser


def _ratings_path(args, config) -> Path:
    explicit = _setting(args, config, "ratings")
    if explicit:
        return Path(explicit)
    data_dir = _setting(args, config, "data-dir")
    if not data_dir:
        raise SystemExit("error: --ratings or --data-dir is required")
    return Path(data_dir) / "ratings.dat"


def _require_file(path: Path) -> Path:
    if not path.is_file():
        raise SystemExit(f"error: file not found: {path}")
    return path


def _cmd_fetch_metadata(args, config) -> int:
    movies = ingest.parse_movies(_require_file(Path(args.movies)))
    endpoint = _endpoint(args, config)
    logger.info("fetching metadata for %d movies from %s", len(movies), endpoint)
    outcomes = ingest.fetch_all(
        movies,
        endpoint,
        concurrency=args.concurrency,
        retries=args.retries,
        delay=args.delay,
        limit=args.limit,
    )
    ingest.save_fetched(outcomes, args.out)
    ok = sum(1 for o in outcomes if o.status == "ok")
    logger.info(
        "wrote %d fetch records to %s (%d ok, %d not found, %d failed)",
        len(outcomes), args.out, ok,
        sum(1 for o in outcomes if o.status == "not-found"),
        sum(1 for o in outcomes if o.status == "failed"),
    )
    return 0


def _cmd_build_profiles(args, config) -> int:
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


def _run_config(args, config) -> RunConfig:
    k = _setting(args, config, "k")
    if isinstance(k, str):
        k = _parse_k_list(k)
    elif isinstance(k, int):
        k = (k,)
    min_sim = _setting(args, config, "min-sim")
    sample_test = _setting(args, config, "sample-test")
    workers = _setting(args, config, "workers")
    return RunConfig(
        method=_setting(args, config, "method", "pc"),
        k_values=k or (5, 10, 20, 30, 50),
        seed=int(_setting(args, config, "seed", 42)),
        k0_branch=_setting(args, config, "k0-branch", "mv"),
        denominator=_setting(args, config, "denominator", "abs"),
        min_sim=float(min_sim) if min_sim is not None else None,
        sample_test=int(sample_test) if sample_test is not None else None,
        workers=int(workers) if workers is not None else None,
        split=_setting(args, config, "split", "per-item"),
    )


def _load_profiles_if_needed(method: str, profiles_path: str | None):
    if method != "wpc":
        return None
    if not profiles_path:
        raise SystemExit("error: --method wpc requires --profiles")
    return ingest.load_profiles(_require_file(Path(profiles_path)))


def _cmd_evaluate(args, config) -> int:
    cfg = _run_config(args, config)
    ratings = ingest.parse_ratings(_require_file(_ratings_path(args, config)))
    profiles = _load_profiles_if_needed(cfg.method, _setting(args, config, "profiles"))
    logger.info(
        "evaluating method=%s k=%s seed=%d on %d ratings",
        cfg.method, list(cfg.k_values), cfg.seed, len(ratings),
    )
    reports = run_experiment(ratings, cfg, profiles=profiles)
    out = _setting(args, config, "out", "report.csv")
    emit_report(reports, out)
    logger.info("report written to %s", out)
    return 0


def _cmd_predict(args, config) -> int:
    cfg = _run_config(args, config)
    ratings = ingest.parse_ratings(_require_file(_ratings_path(args, config)))
    matrix = build_matrix(ratings)
    if not matrix.has_user(args.user):
        raise SystemExit(f"error: unknown user {args.user}")
    if not matrix.has_item(args.item):
        raise SystemExit(f"error: unknown item {args.item}")
    k = int(_setting(args, config, "k", 50))

    weights = None
    if cfg.method == "wpc":
        store = _load_profiles_if_needed(cfg.method, _setting(args, config, "profiles"))
        calc = WeightCalculator(store, k0_branch=cfg.k0_branch)
        weights = calc.weights_for(args.item, matrix.ratings_of(args.user).keys())
    neighbors = select_neighbors(
        args.user, args.item, matrix, k, weights=weights, min_sim=cfg.min_sim
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
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    config = _read_config_file(args.config) if args.config else {}
    try:
        return _COMMANDS[args.command](args, config)
    except SystemExit:
        raise
    except (ValueError, KeyError, OSError) as exc:
        logger.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
