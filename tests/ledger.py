"""Rewrite ``tests/ledger.json``, the ledger of exact counts.

    python tests/ledger.py

Recomputes every count of the ledger and writes the file; the tier-1 test
``tests/test_ledger.py`` recomputes them and prints a per-key diff against
it. The ledger holds, for each job of the bench's ``converse`` list at seed
2101, the rank queries that ``recover_partition(..., stats={})`` reports
per phase and per part of the final comparison, with their sums over the
jobs. The job list is read from ``bench/workloads.py`` without editing it,
as ``bench/test_bench.py`` reads it. A change that moves a count rewrites
the ledger and names each changed key, with its reason, in ``CHANGES.md``.
pytest does not collect this file, since its name does not start with
``test_``.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "ledger.json"
CONVERSE_SEED = 2101


def converse_counts(seed: int = CONVERSE_SEED) -> dict:
    """{job key: {"rank_queries": {phase: count}, "final_parts": {part:
    count}}} for each job of converse's list at ``seed``, and the same sums
    over every job under "all"."""
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import frobmat.recovery as recovery
    import workloads

    jobs, total = {}, {"rank_queries": {}, "final_parts": {}}
    recover = recovery.recover_partition
    try:
        for job in workloads.build("converse", seed):
            stats: dict = {}
            # each job asks recovery.recover_partition by name when it runs
            recovery.recover_partition = functools.partial(recover, stats=stats)
            job.run()
            counts = {
                "rank_queries": stats["rank_queries"],
                "final_parts": stats["final_parts"]["rank_queries"],
            }
            jobs[job.key] = counts
            for kind, into in total.items():
                for key, n in counts[kind].items():
                    into[key] = into.get(key, 0) + n
    finally:
        recovery.recover_partition = recover
    return {"seed": seed, "jobs": jobs, "all": total}


def ledger() -> dict:
    return {"converse": converse_counts()}


def flatten(tree: dict, prefix: str = "") -> dict:
    """The leaves of ``tree`` by their "/"-joined paths."""
    out = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            out.update(flatten(value, f"{prefix}{key}/"))
        else:
            out[f"{prefix}{key}"] = value
    return out


def main() -> int:
    LEDGER.write_text(json.dumps(ledger(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {LEDGER.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
