"""Regenerate reference.json: the checked output rows of every workload on
the default seed at the full grid.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

Only rerun this when a change is meant to alter the numerical results;
a change that moves them by round-off must pass against the old file.
"""

import json
import os
import shutil
import subprocess
import sys

from checks import REFERENCE, reference_rows
from run import HERE, OUT_ROOT, ROOT, child_env
from workloads import DEFAULT_SEED, WORKLOADS, config_text


def main():
    ref = {}
    for name in WORKLOADS:
        run_dir = os.path.join(OUT_ROOT, "reference", name)
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        cfg_path = os.path.join(run_dir, "run.cfg")
        out_dir = os.path.join(run_dir, "out")
        with open(cfg_path, "w") as fh:
            fh.write(config_text(name, DEFAULT_SEED, out_dir))
        subprocess.run([sys.executable, os.path.join(HERE, "child.py"), cfg_path,
                        os.path.join(run_dir, "result.json"), "-"],
                       cwd=ROOT, env=child_env(), check=True)
        file, header, rows = reference_rows(name, out_dir)
        ref[name] = {"file": file, "header": header, "rows": rows}
        print(f"{name}: {file}, {len(rows)} row(s)")
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
