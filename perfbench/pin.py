"""Regenerate pinned.json, the seed-independent content of every record.

    python3 perfbench/pin.py SEED [SEED ...]

Runs one pass of every workload per seed.  Content is accepted only when
every record passes the independent checks and every seed gives the same
content; otherwise nothing is written and the exit code is 1.
"""

import json
import sys

from checks import PINNED_PATH, check_record, seed_independent
from run import run_worker
from workloads import WORKLOADS, family_key


def main(seeds):
    pinned = {}
    problems = []
    for workload, cases in WORKLOADS.items():
        by_id = {case.id: case for case in cases}
        for seed in seeds:
            for call in run_worker(workload, "plain", seed, passes=1)["calls"]:
                where = f"{call['case']} {call['family']} seed {seed}"
                if call["error"] is not None:
                    problems.append(f"{where}: {call['error']}")
                    continue
                found = check_record(by_id[call["case"]], call["family"],
                                     call["record"])
                problems.extend(f"{where}: {p}" for p in found)
                text = seed_independent(call["record"])
                slot = pinned.setdefault(call["case"], {})
                if slot.setdefault(family_key(call["family"]), text) != text:
                    problems.append(f"{where}: content differs between seeds")
    if problems:
        sys.exit("not pinned:\n" + "\n".join(problems))
    with open(PINNED_PATH, "w") as f:
        json.dump(pinned, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]] or [0])
