"""The contentcf protocol benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload full-pc --seed 1 --seconds 20 --trace 0

It times what a researcher running ``contentcf evaluate`` waits for: parse
the input files with ``ingest``, then ``evaluation.run_experiment`` over all
5 folds and the k grid 5,10,20,30,50. Inputs are generated from ``--seed``
(see generate.py) and cached. Each protocol repetition is a fresh process
(protocol.py), so set-up time includes imports. Repetitions continue until
``--seconds`` have passed (at least one); the result reports medians.

Every repetition's report grid is checked: a digest of its exact bits must
match the one recorded for (workload, seed) in reference_digests.json, and
predictions + skipped = held-out count, fallbacks <= predictions, every MAE
finite. A seed with no recorded digest is reported as unverified.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced and
then traced repetitions and prints the per-layer metrics (spans.py). A run
manifest (machine, versions, commit, input hashes) and the per-repetition
detail are written to perfbench/_out/. The last line of standard output is
the result object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import check
import generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = HERE / "_cache"
OUT = HERE / "_out"

N_FOLDS = 5  # the protocol's fold count
MIN_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150
RUN_BUDGET_S = 150  # start no repetition that could end past this


@dataclass(frozen=True)
class Workload:
    shape: str
    method: str
    workers: int
    sample_test: int | None


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "sampled-wpc": Workload("ml1m", "wpc", workers=2, sample_test=300),
    "full-pc": Workload("desk", "pc", workers=1, sample_test=None),
    "full-wpc": Workload("desk", "wpc", workers=1, sample_test=None),
}

END_TO_END_UNITS = {"protocol_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "ingest.parse_ratings_s": "s",
    "ingest.load_profiles_s": "s",
    "evaluation.split_folds_s": "s",
    "evaluation.fold_self_s": "s",
    "evaluation.pool_s": "s",
    "data.build_matrix_s": "s",
    "data.build_matrix.calls": "count",
    "weighting.calculator_init_s": "s",
    "weighting.weights_for_s": "s",
    "weighting.weights_for.calls": "count",
    "weighting.weights_requested": "count",
    "weighting.weights_computed": "count",
    "weighting.memo_hit_ratio": "ratio",
    "cf.rank_candidates_s": "s",
    "cf.rank_candidates.calls": "count",
    "cf.rank_candidates_ms.p50": "ms",
    "cf.rank_candidates_ms.p99": "ms",
    "cf.candidates_scored": "count",
    "cf.predict_s": "s",
    "cf.predict.calls": "count",
    "cf.neighbors_used": "count",
    "evaluation.predictions": "count",
    "evaluation.fallbacks": "count",
    "evaluation.skipped": "count",
    "trace.protocol_s": "s",
    "trace.overhead_s": "s",
}
# Deterministic per-layer counts: they must repeat exactly across repetitions.
COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]
# Each pool worker has its own weight memo and takes chunks as it frees up,
# so with more than one worker the number of weights computed depends on
# scheduling.
SCHEDULE_DEPENDENT = {"weighting.weights_computed"}


def file_facts(path: Path) -> dict:
    digest = hashlib.sha256()
    rows = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
            rows += block.count(b"\n")
    return {"sha256": digest.hexdigest(), "rows": rows}


def git_commit() -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def held_out_count(workload: Workload, n_ratings: int) -> int:
    """Held-out ratings the protocol must attempt across all folds."""
    if workload.sample_test is None:
        return n_ratings
    # Per-item dealing gives every fold at least floor(n_j / 5) of item j's
    # ratings, so each fold holds at least (n - 4 * n_items) / 5 of them.
    n_items = generate.SHAPES[workload.shape].n_items
    smallest_fold = (n_ratings - (N_FOLDS - 1) * n_items) // N_FOLDS
    if smallest_fold <= workload.sample_test:
        raise ValueError("a test fold may be smaller than the sample; fix the workload")
    return N_FOLDS * workload.sample_test


def spawn(workload: Workload, inputs: Path, setup_only: bool = False,
          spans_path: Path | None = None) -> dict:
    """Run protocol.py once; its parsed result, or {"error": ...}."""
    cmd = [
        sys.executable, str(HERE / "protocol.py"),
        "--inputs", str(inputs), "--method", workload.method,
        "--workers", str(workload.workers),
    ]
    if workload.sample_test is not None:
        cmd += ["--sample-test", str(workload.sample_test)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    # Pool workers share the child's process group; none may outlive it.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if stdout is None:
        proc.communicate()
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {stderr.strip()[-2000:]}"}
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"no result line in output: {stdout[-500:]!r}"}


def repeat(workload: Workload, inputs: Path, seconds: float, run_start: float,
           spans_stem: str | None = None) -> list[dict]:
    """Protocol repetitions until ``seconds`` have passed, at least one."""
    reps: list[dict] = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        longest = max(r.get("wall_s", 0.0) for r in reps) if reps else 0.0
        if reps and time.monotonic() - run_start + longest > RUN_BUDGET_S:
            break
        spans_path = OUT / f"{spans_stem}-rep{len(reps)}.spans.json" if spans_stem else None
        t0 = time.monotonic()
        rep = spawn(workload, inputs, spans_path=spans_path)
        rep["wall_s"] = time.monotonic() - t0
        reps.append(rep)
    return reps


def judge(reps: list[dict], held_out: int, reference: str | None,
          counts: list[str]) -> list[str]:
    """Annotate each repetition with its digest and errors; return run-level errors."""
    errors: list[str] = []
    for i, rep in enumerate(reps):
        rep_errors = [rep["error"]] if "error" in rep else []
        if not rep_errors:
            rep["digest"] = check.grid_digest(rep["reports"])
            rep_errors += check.invariant_errors(rep["reports"], held_out)
            if reference is not None and rep["digest"] != reference:
                rep_errors.append(f"digest {rep['digest']} != reference {reference}")
            if abs(rep.get("unattributed_s", 0.0)) > 1e-6:
                rep_errors.append(f"layer self times miss {rep['unattributed_s']} s")
        rep["errors"] = rep_errors
        errors += [f"rep {i}: {e}" for e in rep_errors]
    digests = {rep["digest"] for rep in reps if "digest" in rep}
    if len(digests) > 1:
        errors.append(f"repetitions disagree on the grid digest: {sorted(digests)}")
    layers = [rep["layers"] for rep in reps if "layers" in rep]
    for name in counts:
        values = {lay.get(name) for lay in layers}
        if len(values) > 1:
            errors.append(f"count {name} differs between repetitions: {sorted(values)}")
    return errors


def grid_counts(reports: list[dict]) -> dict[str, int]:
    return {
        "evaluation.predictions": reports[0]["predictions"],
        "evaluation.fallbacks": sum(r["fallbacks"] for r in reports),
        "evaluation.skipped": reports[0]["skipped"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    run_start = time.monotonic()

    if not (ROOT / "src" / "contentcf" / "__init__.py").is_file():
        print(f"error: no contentcf package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = generate.cached_inputs(workload.shape, args.seed, CACHE)
    files = {name: file_facts(inputs / name) for name in generate.FILES}
    held_out = held_out_count(workload, files["ratings.dat"]["rows"])
    reference = check.reference_digest(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"

    plain = repeat(workload, inputs, args.seconds, run_start)
    traced = (
        repeat(workload, inputs, args.seconds, run_start, spans_stem=stem)
        if args.trace else []
    )
    probes = []
    if not args.trace:
        while len(plain) + len(probes) < MIN_SETUP_SAMPLES:
            probes.append(spawn(workload, inputs, setup_only=True))

    reps = plain + traced
    exact = [c for c in COUNTS if workload.workers == 1 or c not in SCHEDULE_DEPENDENT]
    errors = judge(reps, held_out, reference, exact)
    errors += [f"setup probe: {p['error']}" for p in probes if "error" in p]
    # Metrics come from every repetition that finished; errors mark it incorrect.
    good_plain = [r for r in plain if "error" not in r]
    good_traced = [r for r in traced if "error" not in r]
    if not good_plain or (args.trace and not good_traced):
        print("error: no repetition finished:\n  " + "\n  ".join(errors),
              file=sys.stderr)
        return 1

    failed = held_out * sum(1 for r in reps if r["errors"])
    attempted = held_out * len(reps)
    protocol_s = statistics.median(r["protocol_s"] for r in good_plain)
    if args.trace:
        metrics = {
            name: statistics.median(r["layers"][name] for r in good_traced)
            for name in PER_LAYER_UNITS
            if name in good_traced[0]["layers"]
        }
        metrics.update(grid_counts(good_traced[0]["reports"]))
        metrics["trace.overhead_s"] = metrics["trace.protocol_s"] - protocol_s
        units = PER_LAYER_UNITS
    else:
        setups = [r["setup_s"] for r in good_plain + probes if "error" not in r]
        metrics = {
            "protocol_s": protocol_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                r["rss_self_mb"] + r["rss_children_mb"] for r in good_plain
            ),
        }
        units = END_TO_END_UNITS

    digest = good_plain[0]["digest"]
    verification = (
        "unverified" if reference is None else ("verified" if digest == reference else "mismatch")
    )
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "shape": {"name": workload.shape, **asdict(generate.SHAPES[workload.shape])},
        "config": {"method": workload.method, **good_plain[0]["config"]},
        "inputs": files,
        "held_out": held_out,
        "digest": digest,
        "verification": verification,
        "failed_share": failed / attempted,
        "errors": errors,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
        "repetitions": [
            {k: v for k, v in r.items() if k != "reports"} for r in reps
        ] + [{"setup_probe": True, **p} for p in probes],
    }
    with open(OUT / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: grid digest {digest[:16]} ({verification}), "
          f"{attempted - failed}/{attempted} held-out predictions kept across {len(reps)} "
          f"repetitions")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6f} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
