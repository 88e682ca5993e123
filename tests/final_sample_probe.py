"""Report which part of recovery refuses each fault of the final-sample corpus.

    python tests/final_sample_probe.py [--src DIR] [--samples N] [--seeds 0,1,...] [--summary]

Runs ``recover_partition(..., seed=seed, stats={})`` on every fault of
``conftest.final_sample_corpus()`` (K_4 over Z7, Z11, D6 and F20 under every
partition), for each seed of ``--seeds`` (default 0), and prints one line
per run: the fault's name, the seed, whether recovery refused it
(``refused``, ``accepted``, or the name of any other exception), the phase
and the ``final_parts`` part that was running when it stopped, and the rank
queries asked up to then. With ``--summary`` it prints instead, per fault
kind, how many runs each phase or part refused first and how many were
accepted.

``--src`` imports ``frobmat`` from another source tree, such as an unpacked
``git archive`` of an earlier commit, so the same corpus runs against that
commit's sample; the corpus and the probe are read from this checkout.
``--samples`` sets ``frobmat.biased.SAMPLES``, the halves of every sampled
comparison, for the run (``frobmat.recovery.SAMPLES`` in a tree from before
the constant moved there). pytest does not
collect this file, since its name does not start with ``test_``. The whole
corpus runs in about 8 s per seed on a 2-core Xeon.
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def probe(fault, seed: int) -> tuple[str, str, str, int]:
    """(verdict, phase, part, queries) of one recovery of ``fault``."""
    from frobmat import RecoveryError, recover_partition

    stats: dict = {}
    try:
        recover_partition(fault.group, fault.kernel, 4, fault.build(), seed=seed, stats=stats)
        verdict = "accepted"
    except RecoveryError:
        verdict = "refused"
    except Exception as exc:  # reported, not raised: the probe lists every fault
        verdict = type(exc).__name__
    queries = stats.get("rank_queries", {})
    phases = [p for p in queries if p != "total"]
    phase = phases[-1] if phases else "-"
    parts = list(stats.get("final_parts", {}).get("rank_queries", {}))
    part = parts[-1] if phase == "final" and parts else "-"
    return verdict, phase, part, queries.get("total", 0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=TESTS.parent / "src")
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seeds", default="0")
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(TESTS)]
    import frobmat.biased
    import frobmat.recovery
    from conftest import final_sample_corpus

    home = frobmat.biased if hasattr(frobmat.biased, "SAMPLES") else frobmat.recovery
    if args.samples is not None:
        home.SAMPLES = args.samples
    print(f"# frobmat from {args.src}, SAMPLES = {home.SAMPLES}")
    tally: dict = collections.defaultdict(collections.Counter)
    for seed in map(int, args.seeds.split(",")):
        for fault in final_sample_corpus():
            verdict, phase, part, queries = probe(fault, seed)
            where = verdict if verdict != "refused" else part if part != "-" else phase
            tally[fault.name.split("/")[2]][where] += 1
            if not args.summary:
                print(f"{fault.name:32} {seed} {verdict:9} {phase:8} {part:9} {queries}")
    if args.summary:
        for kind, counts in tally.items():
            print(f"{kind:9} " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
