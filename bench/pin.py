"""Pin the CSV digests of the current source tree into ``bench/digests.json``.

Run from the root of a checkout, at the commit whose outputs are the
reference that later commits must reproduce:

    python3 bench/pin.py --seeds 12345 0 1 2

Each (workload, seed) runs once, untraced, through the same child process
and output checks as ``bench/run.py``; the file is rewritten after every
pin, so an interrupted run keeps what it finished.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from run import OUT_DIR, PINNED, WORKLOADS, Runner


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for name in sorted(WORKLOADS):
        for seed in args.seeds:
            run_dir = root / OUT_DIR / f"pin-{name}-seed{seed}"
            shutil.rmtree(run_dir, ignore_errors=True)
            runner = Runner(root, WORKLOADS[name], seed, run_dir, None)
            record = runner.call("run")
            if record["errors"]:
                print(f"{name} seed {seed}: " + "; ".join(record["errors"]), file=sys.stderr)
                return 1
            pinned.setdefault(name, {})[str(seed)] = runner.reference
            PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
            print(f"pinned {name} seed {seed} ({record['wall_s']:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
