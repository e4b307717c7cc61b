"""Golden SHA-256 digests of request outputs for the committed seeds.

``golden.json`` maps "<mode>:<workload>" to seed to the digests of the
first requests' canonical outputs: the exit code, standard output, and
standard error when the exit code is not 0.  A run whose seed is
committed compares every request that has a digest; requests beyond
them, and other seeds, are checked by the invariants alone.

    python3 bench/golden.py [WORKLOAD ...]   # record digests from the current program

Recording refuses to write when any request fails its invariants.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SEEDS = range(0, 20)
FULL_REQUESTS = 16


def digest(out) -> str:
    text = "%d\n%s" % (out.code, out.text) + ("\n" + out.err if out.code else "")
    return hashlib.sha256(text.encode()).hexdigest()


def load(mode: str, workload: str) -> dict[int, list[str]]:
    with open(GOLDEN) as fh:
        table = json.load(fh).get("%s:%s" % (mode, workload), {})
    return {int(seed): digests for seed, digests in table.items()}


def mismatch(goldens: dict[int, list[str]], seed: int, index: int, out) -> Optional[str]:
    expected = goldens.get(seed, ())
    if index < len(expected) and digest(out) != expected[index]:
        return "output digest differs from the committed golden digest"
    return None


def record(names: list[str]) -> int:
    import run
    import workloads

    with open(GOLDEN) as fh:
        table = json.load(fh)
    for mode, schedules in (("full", workloads.SCHEDULES), ("smoke", workloads.SMOKE_SCHEDULES)):
        for workload in names or run.WORKLOADS:
            schedule = schedules[workload]
            count = FULL_REQUESTS if mode == "full" else len(schedule)
            for seed in SEEDS:
                state = run.set_up(workload, seed, schedule)
                digests = []
                for index in range(count):
                    req = run.request_at(workload, state, schedule, seed, index)
                    out = run.serve(req, state.prog)
                    problem = req.check(out) if out.code >= 0 else out.err
                    if problem:
                        print("%s %s seed %d request %d: %s" % (
                            mode, workload, seed, index, problem), file=sys.stderr)
                        return 1
                    digests.append(digest(out))
                table.setdefault("%s:%s" % (mode, workload), {})[str(seed)] = digests
                print("recorded %s %s seed %d" % (mode, workload, seed), file=sys.stderr)
    with open(GOLDEN, "w") as fh:
        fh.write(dumps(table))
    return 0


def dumps(table: dict) -> str:
    """The table as JSON with one line per workload and seed."""
    blocks = []
    for key in sorted(table):
        rows = ",\n".join("  %s: %s" % (json.dumps(seed), json.dumps(digests))
                           for seed, digests in sorted(table[key].items(), key=lambda x: int(x[0])))
        blocks.append("%s: {\n%s\n}" % (json.dumps(key), rows))
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:]))
