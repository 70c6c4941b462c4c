"""Record the digest of every benchmark item's output in digests.json.

    python3 perfbench/record_digests.py

Run from the root of a source checkout.  The benchmark compares each output
with these digests, so record them only at a commit whose outputs are known
to be right; an item whose own checks fail is not recorded.
"""

import json
import sys

from run import HERE, ROOT
from workloads import WORKLOADS, build_items, digest, import_package


def main():
    pkg = import_package(ROOT / "src")
    recorded, bad = {}, []
    for name, workload in WORKLOADS.items():
        recorded[name] = {}
        for item in build_items(pkg, workload):
            if item.id in recorded[name]:
                continue
            output, problems = workload.run(pkg, item)
            if problems:
                bad.append(f"{name} {item.id}: {'; '.join(problems)}")
            else:
                recorded[name][item.id] = digest(output)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    (HERE / "digests.json").write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
