"""Payload fingerprints: the bits of a fixed set of small runs.

Each case runs a small config through the harness and keeps, per record,
the sha256 of its ``record.json`` bytes and the ``meta.json`` stage table
(per-stage Newton and Krylov counts, damping events and residual history).
``test_payload_bits.py`` compares them with the set committed in
``fingerprints.json`` for this machine's key, so a refactor that changes a
single payload bit fails tier-1.

Bits depend on the numpy build, the SIMD loops numpy dispatches and the
BLAS build, so the committed sets are keyed by those (``machine_key``).
Every case stays at or below 8192 cells, where OpenBLAS runs its
reductions on one thread, so the bits do not depend on the thread count.

A change that alters payload bits on purpose regenerates this machine's
set, from the repository root::

    PYTHONPATH=src python tests/fingerprints.py

which replaces the set under this machine's key and keeps the others.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from gradlab.harness import parse_config, run_experiment, sweep
from gradlab.harness.records import load_record_field

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"

# README's config, with all five ledgers
README = """
[problem]
p = 2
gamma = 6
lambda = 1
eps = 1e-2
q = 3
source = radial
center = 0.5 0.5
power = 0.55
amplitude = 30

[grid]
extents = 1 1
cells = 48 48

[solver]
tol = 1e-10
max_iter = 50
continuation = on

[analysis]
beta = 5
sobolev_dim = 3
ledgers = weak thm1 thm2 scan maxreg
k_levels = 1.0 1.3 1.6 1.9 2.2
epsilon_sweep = 1e-1 1e-2 1e-3
"""

RADIAL_3D = """
[problem]
p = 2
gamma = 6
lambda = 1
eps = 1e-2
q = 3
source = radial
center = 0.5 0.5 0.5
power = 0.8
amplitude = 15

[grid]
extents = 1 1 1
cells = 12 12 12

[analysis]
beta = 5
sobolev_dim = 3
ledgers = weak thm1 thm2 scan maxreg
k_levels = 1.0 1.3 1.6 1.9 2.2
"""

COSINE_P3 = """
[problem]
p = 3
gamma = 3
lambda = 1
eps = 1e-2
q = 3
source = cosine
amplitude = 20
modes = 1 1

[grid]
extents = 1 1
cells = 32 32

[analysis]
beta = 5
sobolev_dim = 3
ledgers = weak thm1 thm2 scan maxreg
k_levels = 1.0 1.3 1.6 1.9 2.2
h_sweep = 16 32
"""


def machine_key() -> str:
    """numpy's version, its BLAS build and the SIMD features it dispatches
    to on this CPU: what a payload's bits depend on besides the code."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = f"{blas['name']} {blas.get('openblas configuration', blas['version'])}"
    except (TypeError, KeyError):  # numpy before 1.26 reports no dict
        build = "unknown BLAS"
    features = list(umath.__cpu_baseline__) + [
        f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]
    ]
    return f"numpy {np.__version__}; {' '.join(build.split())}; {' '.join(features)}"


def _fingerprint(result) -> dict:
    return {
        "payload_sha256": hashlib.sha256(
            (result.path / "record.json").read_bytes()
        ).hexdigest(),
        "stages": result.meta["solve"]["stages"],
    }


def fingerprints(out_dir: Path) -> dict:
    """Run every case, persisting under ``out_dir``; case name -> records."""
    readme = parse_config(README)
    solved = run_experiment(readme, out_dir / "readme")
    audit = dataclasses.replace(
        readme, solver=dataclasses.replace(readme.solver, continuation=False)
    )
    cases = {
        "readme_48": [solved],
        "readme_eps_sweep_24": sweep(
            dataclasses.replace(readme, cells=(24, 24)), "eps", out_dir / "eps"
        ),
        "radial3d_12": [run_experiment(parse_config(RADIAL_3D), out_dir / "radial3d")],
        "p3_h_sweep_32": sweep(parse_config(COSINE_P3), "h", out_dir / "p3"),
        "readme_48_audit": [
            run_experiment(
                audit, out_dir / "audit", initial=load_record_field(solved.path)
            )
        ],
    }
    return {name: [_fingerprint(r) for r in results] for name, results in cases.items()}


def main() -> None:
    sets = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        sets[machine_key()] = fingerprints(Path(tmp))
    FINGERPRINTS.write_text(json.dumps(sets, indent=1, sort_keys=True) + "\n")
    print(f"{FINGERPRINTS}: wrote the set for {machine_key()}", file=sys.stderr)


if __name__ == "__main__":
    main()
