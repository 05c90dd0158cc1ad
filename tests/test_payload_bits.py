"""Tier-1 gate on payload bits: a fixed set of small runs reproduces the
committed ``record.json`` hashes and ``meta.json`` stage tables.

The cases and the key of a fingerprint set are in ``fingerprints.py``,
which also regenerates this machine's set.  A machine whose key has no
committed set skips, with a message naming the key.
"""

import json

import pytest

from fingerprints import FINGERPRINTS, fingerprints, machine_key


@pytest.fixture(scope="module")
def committed_and_run(tmp_path_factory):
    key = machine_key()
    sets = json.loads(FINGERPRINTS.read_text())
    if key not in sets:
        pytest.skip(f"no payload fingerprint set for {key!r}; see tests/fingerprints.py")
    return sets[key], fingerprints(tmp_path_factory.mktemp("fingerprints"))


@pytest.mark.parametrize(
    "case",
    ["readme_48", "readme_eps_sweep_24", "radial3d_12", "p3_h_sweep_32", "readme_48_audit"],
)
def test_payload_bits_match_the_committed_set(committed_and_run, case):
    committed, ran = committed_and_run
    assert set(ran) == set(committed)
    assert ran[case] == committed[case]
