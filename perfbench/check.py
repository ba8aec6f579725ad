"""Correctness of one protocol run: a bit-exact digest of the report grid and its invariants."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"


def grid_digest(reports: list[dict]) -> str:
    """sha256 over method, k, the exact bits of each fold MAE and the pooled MAE,
    and the prediction, fallback and skip counts, row by row in report order.

    Floats arrive as ``float.hex`` strings and are normalised through
    ``float.fromhex``, so any change of one ULP changes the digest.
    """
    lines = []
    for r in reports:
        fields = [r["method"], str(r["k"])]
        fields += [float.fromhex(m).hex() for m in r["fold_maes"]]
        fields += [float.fromhex(r["mae"]).hex()]
        fields += [str(r["predictions"]), str(r["fallbacks"]), str(r["skipped"])]
        lines.append(",".join(fields))
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def invariant_errors(reports: list[dict], held_out: int) -> list[str]:
    """Violations of: predictions + skipped = held-out count, fallbacks <= predictions,
    every MAE finite."""
    errors = []
    if not reports:
        return ["empty report grid"]
    for r in reports:
        where = f"{r['method']} k={r['k']}"
        if r["predictions"] + r["skipped"] != held_out:
            errors.append(
                f"{where}: predictions {r['predictions']} + skipped {r['skipped']} "
                f"!= held-out {held_out}"
            )
        if not 0 <= r["fallbacks"] <= r["predictions"]:
            errors.append(f"{where}: fallbacks {r['fallbacks']} > predictions {r['predictions']}")
        maes = [float.fromhex(m) for m in r["fold_maes"]] + [float.fromhex(r["mae"])]
        if not all(math.isfinite(m) for m in maes):
            errors.append(f"{where}: non-finite MAE in {maes}")
    return errors


def reference_digest(workload: str, seed: int, path: Path = REFERENCE_FILE) -> str | None:
    """The recorded digest for (workload, seed), or None when the seed is unverified."""
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(workload, {}).get(str(seed))
