"""Record the expected stdout digest of every command of every workload at
the default seed into `expected_digests.json`, keyed by workload.  At the
default seed this also freezes each workload's command list (see `run.py`).

Usage, from the root of a kvcalc checkout whose outputs are known to be
right: python3 perfbench/record_digests.py

A command is recorded only if it exits 0 and passes the structural checks of
`checks.py`; otherwise the script stops without writing anything.
"""

import argparse
import json
import sys
from pathlib import Path

import checks
import run
import workloads


def main() -> int:
    root = Path.cwd()
    digests = {name: {} for name in workloads.NAMES}
    for name in workloads.NAMES:
        runner, cmds = run.prepare(root, argparse.Namespace(
            workload=name, seed=run.DEFAULT_SEED, commands=None))
        for argv in cmds:
            _, _, _, code = runner.spawn([*run.KV_CALC, *argv])
            stdout = runner.stdout()
            reason = checks.check(argv, code, stdout, {})
            if reason is not None:
                print(f"error: {checks.key(argv)}: {reason}", file=sys.stderr)
                return 1
            digests[name][checks.key(argv)] = checks.digest(stdout)
    checks.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print(f"recorded {sum(map(len, digests.values()))} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
