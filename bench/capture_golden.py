"""Write golden.json: the outputs the benchmark compares every run with.

    python3 bench/capture_golden.py

Records the masked stdout of every CLI command and, for each workload at
both sizes, the digest of round 0 for the default seed.  Run it only on a
commit whose outputs are known to be right: the golden files here were
captured at the commit that introduced the benchmark, and a change that
alters any output must say why in its own review, not by re-capturing.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
from clock import Clock
import workloads


def main() -> int:
    run.check_environment()
    run.load_program()
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=run.BENCH))
    try:
        cli = workloads.Cli("full", run.SRC, workdir, {})
        cli.report.unlink(missing_ok=True)
        golden = {"cli": {}, "digests": {}}
        for command in workloads.CLI_COMMANDS:
            code, stdout = cli._subprocess(cli.argv(command))
            if code != 0:
                raise SystemExit(f"{command} exited with {code}")
            golden["cli"][command] = workloads.mask(command, stdout)
        caches = run.find_caches()
        for name in run.WORKLOADS:
            for size in ("full", "tiny"):
                wl = run.make_workload(name, size, workdir, golden)
                for fn in caches.values():
                    fn.cache_clear()
                inputs = wl.inputs(run.DEFAULT_SEED, 0)
                failed, lines = wl.check(inputs, wl.run(inputs, Clock(), False).outputs)
                if failed:
                    raise SystemExit(f"{name}/{size}: {failed} items fail their checks")
                golden["digests"][f"{name}/{size}"] = run.digest(lines)
                print(f"{name}/{size}: {len(lines)} output lines", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with run.GOLDEN.open("w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
