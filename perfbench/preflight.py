"""Correctness preflight: run lioup.validate.run_all() and print one JSON line
with its wall time and every criterion that failed.

    python3 perfbench/preflight.py
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lioup import validate  # noqa: E402 - after the path is set

    t0 = time.perf_counter()
    results = validate.run_all()
    ms = 1e3 * (time.perf_counter() - t0)
    failed = [f"{r.cid}: {r.description} ({r.details})" for r in results
              if not r.passed and not r.expected_fail]
    xfailed = [r.cid for r in results if not r.passed and r.expected_fail]
    print(json.dumps({"ok": not failed, "ms": ms, "criteria": len(results),
                      "failed": failed, "xfailed": xfailed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
