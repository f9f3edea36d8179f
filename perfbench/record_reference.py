"""Record the values the benchmark's reference cases must reproduce.

    python3 perfbench/record_reference.py

Each workload's reference case runs its code path on fixed inputs (see
``Workload.reference_case``); this writes the results to
``perfbench/reference.json``: the full size's, and the tiny size's where
they differ from them. Record again only in a change that is
meant to alter the program's numbers, and say so in that change.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Checks  # noqa: E402


def main():
    reference = {}
    for name, cls in WORKLOADS.items():
        recorded = reference[name] = {}
        for size in ("full", "tiny"):
            (HERE / "out").mkdir(exist_ok=True)
            tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=HERE / "out"))
            checks = Checks()
            try:
                wl = cls(name, 0, size, tmp)
                wl.setup()
                values = wl.reference_case(checks)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if checks.failed:
                sys.exit(f"{name} {size}: reference case failed {checks.failures}")
            if values != recorded.get("full"):
                recorded[size] = values
                print(f"recorded {name} {size}")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
