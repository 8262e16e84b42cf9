"""One set-up sample: a fresh interpreter imports lioup and runs the
workload's warm-up command, then prints `ok <CPU seconds>` (or the failure)
on one line.  The CPU seconds are those the process has used since it
started, interpreter start-up included.

    python3 perfbench/probe.py --workload sweep --seed 1 --config-dir DIR

The parent process also times from spawning this script to reading that line.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--config-dir", required=True)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # noqa: E402 - after the path is set
    from lioup import cli  # noqa: E402

    cmd = workloads.warmup(args.workload, args.seed)
    path = os.path.join(args.config_dir, f"probe-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cmd.config, fh)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([cmd.subcommand, "--config", path])
    os.remove(path)
    print(f"ok {time.process_time()!r}" if rc == 0 else f"exit {rc}", flush=True)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
