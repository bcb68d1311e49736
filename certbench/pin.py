"""Rewrite pins.json: the per-instance outputs of every workload at the
pinned seed.  Run it only when a change is meant to alter the program's
output; the benchmark fails any instance that no longer matches.

    python3 certbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from certify import certify  # noqa: E402
from corpus import WORKLOADS, build_instances  # noqa: E402
from run import PIN_SEED  # noqa: E402

from qbdst.instance import serialize_instance  # noqa: E402


def main() -> int:
    pins = {
        workload: [
            certify(serialize_instance(inst), workload).pin
            for inst in build_instances(workload, PIN_SEED)
        ]
        for workload in WORKLOADS
    }
    body = ",\n".join(
        f"{json.dumps(workload)}: [\n"
        + ",\n".join(json.dumps(pin, sort_keys=True) for pin in pins[workload])
        + "\n]"
        for workload in WORKLOADS
    )
    (HERE / "pins.json").write_text("{\n" + body + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
