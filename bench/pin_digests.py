"""Pin the exact outputs of the reference seed's ops in bench/digests.json.

    python3 bench/pin_digests.py [workload ...]

Runs ops 0..N-1 of the reference seed untimed, requires every check to
hold, and stores each op's digest. The exactness contract says a faster
path returns the same Fractions, LP vertices, tie-broken matchings and
seeded draws, so these digests change only when a change means to alter
results; re-pin then, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS, load_library

REFERENCE_SEED = 0
# About twice the ops of one 25-second run of each workload on an idle host.
PINNED_OPS = {"hedge-fair": 100, "certify-lp": 5000, "smooth-fair": 800, "tours-flows": 3000}


def pin(name: str) -> list:
    workload = WORKLOADS[name](load_library(), REFERENCE_SEED)
    digests = []
    for op_id in range(PINNED_OPS[name]):
        inp = workload.make_input(op_id)
        ok, dig = workload.check(inp, workload.run(inp))
        if not ok:
            raise SystemExit(f"{name}: op {op_id} fails its check; nothing pinned")
        digests.append(dig)
    return digests


def main(argv) -> int:
    run._library_on_path()
    names = argv or sorted(WORKLOADS)
    with open(run.DIGESTS) as fh:
        data = json.load(fh)
    if data["reference_seed"] != REFERENCE_SEED:
        data = {"reference_seed": REFERENCE_SEED, "digests": {}}
    for name in names:
        data["digests"][name] = pin(name)
        print(f"{name}: pinned {len(data['digests'][name])} ops", flush=True)
    with open(run.DIGESTS, "w") as fh:
        json.dump(data, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
