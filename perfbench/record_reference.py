"""Record the reference values that every benchmark run compares against.

    python3 perfbench/record_reference.py

Runs each workload's reference job (at specs.REFERENCE_SEED) on the
checkout's source and writes perfbench/reference.json. Rerun it only
when the package's outputs are meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile

import specs
import worker


def main() -> int:
    worker.use_source_tree()
    import workloads

    values = {}
    with tempfile.TemporaryDirectory(dir=worker.ROOT) as workdir:
        for name, cls in workloads.WORKLOADS.items():
            files = specs.write_economies(name, workdir)
            job, values[name] = cls(files, workdir, specs.FULL, None).reference_values()
            if job.failed:
                print(f"error: {name} reference job failed: {job.ops}", file=sys.stderr)
                return 1
    with open(worker.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
