#!/usr/bin/env python3
"""Pin every experiment binary's quick report.

Runs each of the 14 experiment binaries with `--quick --threads N
--json`, drops the wall-clock fields (`elapsed_secs`,
`events_per_sec`) and the thread count (`threads`), and compares the
rest with `goldens/quick/<binary>.json`. Every other field is a
function of the seed alone, so any difference is a change in simulated
output; a deliberate one is re-pinned with `--write` and explained in
CHANGES.md.

With `--full`, runs `table1_macro` and `table2_startup` at full size
instead and compares them with `goldens/full/<binary>.json`. Quick
mode scales Table 1 to 1%, where the host buffer cache never evicts;
the full-size reports pin the eviction path and Table 2's whole-image
copies (about 3 s for both).

    cargo build --release -p gridvm-bench
    python3 goldens/quick_reports.py --threads 1
    python3 goldens/quick_reports.py --threads 2
    python3 goldens/quick_reports.py --threads 1 --write   # re-pin
    python3 goldens/quick_reports.py --full --threads 1

Exits 1 when any report differs from its golden, and prints the diff.
"""

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

BINARIES = [
    "ablation_overlay",
    "ablation_proxy_cache",
    "ablation_schedulers",
    "ablation_vm_assists",
    "claim_pvfs_overhead",
    "ext_batch_vm",
    "ext_chaos",
    "ext_contention",
    "ext_migration",
    "ext_rps_eval",
    "ext_vo_scale",
    "fig1_micro",
    "table1_macro",
    "table2_startup",
]

# The binaries pinned at full size by `--full`.
FULL_BINARIES = ["table1_macro", "table2_startup"]

# Fields that read the wall clock or echo `--threads`.
UNPINNED = {"elapsed_secs", "events_per_sec", "threads"}

HERE = os.path.dirname(os.path.abspath(__file__))


def strip(value):
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in UNPINNED}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def report(binary, bin_dir, threads, full, tmp):
    path = os.path.join(tmp, binary + ".json")
    exe = os.path.join(bin_dir, binary)
    size = [] if full else ["--quick"]
    subprocess.run(
        [exe] + size + ["--threads", str(threads), "--json", path],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    with open(path) as f:
        return json.dumps(strip(json.load(f)), indent=1) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--bin-dir", default=os.path.join(HERE, "..", "target", "release"))
    ap.add_argument("--write", action="store_true", help="re-pin the goldens")
    ap.add_argument("--full", action="store_true",
                    help="pin %s at full size instead" % " and ".join(FULL_BINARIES))
    args = ap.parse_args()
    kind, binaries = ("full", FULL_BINARIES) if args.full else ("quick", BINARIES)
    run = "" if args.full else " --quick"

    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for binary in binaries:
            fresh = report(binary, args.bin_dir, args.threads, args.full, tmp)
            golden_path = os.path.join(HERE, kind, binary + ".json")
            if args.write:
                with open(golden_path, "w") as f:
                    f.write(fresh)
                continue
            with open(golden_path) as f:
                golden = f.read()
            if fresh != golden:
                failed.append(binary)
                sys.stdout.writelines(
                    difflib.unified_diff(
                        golden.splitlines(True),
                        fresh.splitlines(True),
                        "goldens/%s/%s.json" % (kind, binary),
                        "%s%s --threads %d" % (binary, run, args.threads),
                    )
                )
    if failed:
        print("%s reports differ at --threads %d: %s" % (kind, args.threads, ", ".join(failed)),
              file=sys.stderr)
        return 1
    verb = "wrote" if args.write else "matched"
    print("%s %d %s reports at --threads %d" % (verb, len(binaries), kind, args.threads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
