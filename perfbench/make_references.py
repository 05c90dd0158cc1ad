"""Regenerate ``references.json``: verdicts and norms of every workload at seed 0.

Run from the repository root:

    python3 perfbench/make_references.py

Only for a deliberate change of what a workload computes; a change that
claims a speed-up must pass against the committed file instead.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
        work = Path(tmp)
        for name, wl in workloads.WORKLOADS.items():
            wl.make_fixture(0, work)
            state = wl.prepare(0, work)
            results = wl.op(state, work / f"op-{name}")
            refs[name] = [workloads.reference_entry(r.payload) for r in results]
            print(name, [e["verdicts"] for e in refs[name]], file=sys.stderr)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
