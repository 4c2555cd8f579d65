"""Write ``pinned.json``: the signature and work count of every op of every workload.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are known good, such as the commit that
added the benchmark.  Re-pinning hides any output change from the benchmark's
checks, so a change that alters reports, LP text or traces on purpose says so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import execute
from workloads import WORKLOADS, work_done

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workdir = ROOT / ".perfbench_work" / "pin"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pins = {}
    try:
        for workload in WORKLOADS.values():
            for op in workload.build(ROOT, workdir).ops:
                if op.key in pins:
                    continue
                stdout_path = workdir / f"{op.key.replace('/', '.')}.stdout"
                result = execute.launch(["--", *op.argv], workdir, stdout_path, 600)
                stdout = stdout_path.read_bytes()
                if result.exit_code not in (0, 1):
                    raise SystemExit(f"{op.key}: exit code {result.exit_code}")
                if op.check is not None and (error := op.check(stdout, workdir)):
                    raise SystemExit(f"{op.key}: {error}")
                pins[op.key] = execute.signature(op, result.exit_code, stdout, workdir)
                pins[op.key]["work"] = work_done(op, stdout, workdir)
                seconds = result.end - result.start
                print(f"{op.key}: exit {result.exit_code}, work {pins[op.key]['work']}, {seconds:.3f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    execute.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
