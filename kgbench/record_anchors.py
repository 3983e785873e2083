"""Write anchor.json: the outputs of each workload's toy-size anchor operations on this code.

    python3 kgbench/record_anchors.py

Every benchmark run compares its anchor outputs with this file, so it is
recorded once, on the code the benchmark was defined on.
"""

import json
import os
import shutil
import tempfile

from run import pin_blas_threads

pin_blas_threads()

import workloads  # noqa: E402


def main() -> None:
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="anchor-", dir=workloads.OUT_DIR)
    try:
        anchors = {name: workloads.anchor_workload(name, os.path.join(workdir, name)).anchor()
                   for name in workloads.WORKLOADS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.ANCHOR_FILE, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.ANCHOR_SEED, **anchors}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.ANCHOR_FILE}")


if __name__ == "__main__":
    main()
