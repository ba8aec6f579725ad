"""One measured protocol process: the path a user of ``contentcf evaluate`` takes.

It imports the package from the checkout's ``src``, parses ``ratings.dat``
with ``ingest`` (and, for wpc, ``profiles.jsonl``), then calls
``evaluation.run_experiment`` once. It prints one JSON line: the set-up time
(from the parent's spawn to the first call of ``run_experiment``), the
protocol wall time, peak RSS, and the report grid with every float as its
exact hex form. With ``--setup-only`` it stops before ``run_experiment``.
With ``--spans PATH`` it records spans around each layer, writes them to
PATH, and adds the per-layer metrics.

Started by ``run.py``; it is not meant to be run by hand, though it can be:

    python3 perfbench/protocol.py --inputs DIR --method pc --workers 1 \\
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# The `contentcf evaluate` defaults: the paper's k grid and the fold seed.
K_GRID = (5, 10, 20, 30, 50)
FOLD_SEED = 42


def _peak_rss_mb() -> tuple[float, float]:
    """(this process, its largest waited-for child) peak RSS in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, children


def main() -> int:
    parser = argparse.ArgumentParser(description="one measured protocol process")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--method", choices=["pc", "wpc"], required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--sample-test", type=int, default=None)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None,
                        help="trace the layers and write the spans here")
    args = parser.parse_args()

    if not (SRC / "contentcf" / "__init__.py").is_file():
        print(f"error: no contentcf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import contentcf
    from contentcf import evaluation, ingest

    if Path(contentcf.__file__).resolve().parent != SRC / "contentcf":
        print(f"error: imported contentcf from {contentcf.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.spans is not None:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    # As `contentcf evaluate` does: config, ratings, then profiles for wpc.
    config = evaluation.RunConfig(
        method=args.method, k_values=K_GRID, seed=FOLD_SEED,
        workers=args.workers, sample_test=args.sample_test,
    )
    ratings = ingest.parse_ratings(args.inputs / "ratings.dat")
    profiles = (
        ingest.load_profiles(args.inputs / "profiles.jsonl") if args.method == "wpc" else None
    )
    started = time.monotonic()
    out: dict = {
        "setup_s": started - args.spawned_at,
        "config": {"k": list(config.k_values), "fold_seed": config.seed,
                   "sample_test": config.sample_test, "workers": config.workers},
    }
    if not args.setup_only:
        t0 = time.perf_counter()
        reports = evaluation.run_experiment(ratings, config, profiles=profiles)
        out["protocol_s"] = time.perf_counter() - t0
        out["reports"] = [
            {
                "method": r.method,
                "k": r.k,
                "fold_maes": [float(m).hex() for m in r.fold_maes],
                "mae": float(r.mae).hex(),
                "predictions": r.predictions,
                "fallbacks": r.fallbacks,
                "skipped": r.skipped,
            }
            for r in reports
        ]
    out["rss_self_mb"], out["rss_children_mb"] = _peak_rss_mb()
    if tracer is not None:
        out["layers"], out["unattributed_s"] = spans.layer_metrics(tracer)
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
