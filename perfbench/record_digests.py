"""Record the reference grid digest of each workload at the benchmark's seeds.

    python3 perfbench/record_digests.py --seeds 0-31
    python3 perfbench/record_digests.py --seeds 5 --workload full-pc

Runs the protocol once per (workload, seed), checks the invariants, and
writes the digests into reference_digests.json, keeping other entries.
Re-record only for a change that is meant to move the MAE bits; a speed-up
must leave every recorded digest as it is.
"""

from __future__ import annotations

import argparse
import json

import check
import generate
import run


def seed_list(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 0-31 or 1,4,9")
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), action="append",
                        help="default: every workload")
    args = parser.parse_args()

    table: dict[str, dict[str, str]] = {}
    if check.REFERENCE_FILE.is_file():
        table = json.loads(check.REFERENCE_FILE.read_text(encoding="utf-8"))
    for name in args.workload or sorted(run.WORKLOADS):
        workload = run.WORKLOADS[name]
        for seed in args.seeds:
            inputs = generate.cached_inputs(workload.shape, seed, run.CACHE)
            rows = run.file_facts(inputs / "ratings.dat")["rows"]
            rep = run.spawn(workload, inputs)
            if "error" in rep:
                raise SystemExit(f"{name} seed {seed}: {rep['error']}")
            errors = check.invariant_errors(rep["reports"], run.held_out_count(workload, rows))
            if errors:
                raise SystemExit(f"{name} seed {seed}: " + "; ".join(errors))
            digest = check.grid_digest(rep["reports"])
            table.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest}", flush=True)
            check.REFERENCE_FILE.write_text(
                json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
