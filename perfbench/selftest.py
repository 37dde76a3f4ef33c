"""The benchmark's own tests.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

The checker must reject a record with one decomposition entry or one simple
dimension changed, or with a family member missing.  A held-out workload
seed, one not used while the benchmark was built, must pass every check
with no failed call.
"""

import json
import subprocess
import sys

from checks import GROUPS, check_record, load_pinned
from run import ROOT
from workloads import WORKLOADS

HELD_OUT_SEED = 4217


def pinned_records():
    """(case, members, record text) for every pinned family."""
    pinned = load_pinned()
    for cases in WORKLOADS.values():
        for case in cases:
            for key, text in pinned[case.id].items():
                members = tuple(int(m) for m in key.split(","))
                yield case, members, text


def replace_in_section(text, section, index, change):
    """Apply change to the value of the index-th line of a section."""
    lines = text.splitlines()
    start = lines.index(f"{section}:") + 1
    head, _, value = lines[start + index].rpartition(" ")
    lines[start + index] = f"{head} {change(int(value))}"
    return "\n".join(lines) + "\n"


def test_group_tables():
    for order, dims in GROUPS.values():
        assert sum(d * d for d in dims) == order


def test_pinned_records_pass():
    pinned = load_pinned()
    for case, members, text in pinned_records():
        assert check_record(case, members, text, pinned[case.id]) == []


def test_changed_decomposition_entry_is_rejected():
    pinned = load_pinned()
    for case, members, text in pinned_records():
        for index in range(len(members) ** 2):
            bad = replace_in_section(text, "VermaDecomposition", index,
                                     lambda m: m + 1)
            assert check_record(case, members, bad) != []
            assert check_record(case, members, bad, pinned[case.id]) != []


def test_changed_simple_dimension_is_rejected():
    pinned = load_pinned()
    for case, members, text in pinned_records():
        for index in range(len(members)):
            bad = replace_in_section(text, "SimpleDims", index,
                                     lambda d: d + 1)
            assert check_record(case, members, bad) != []
            assert check_record(case, members, bad, pinned[case.id]) != []


def test_missing_member_is_rejected():
    for case, members, text in pinned_records():
        if len(members) < 2:
            continue
        last = str(members[-1])
        bad = "\n".join(line for line in text.splitlines()
                        if not line.strip().startswith(last + ":")) + "\n"
        assert check_record(case, members, bad) != []


def test_held_out_seed_passes():
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(HELD_OUT_SEED),
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
