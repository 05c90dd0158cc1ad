"""The malloc policy set at import: what it sets, where, and what it saves."""

import ctypes
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gradlab
from gradlab.grid import save_field
from gradlab.harness import parse_config, run_experiment

_MMAP = 4 * 2**20 * ctypes.sizeof(ctypes.c_long)
_BOTH = ("M_MMAP_THRESHOLD", "M_TRIM_THRESHOLD")


def _on_glibc() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "gnu_get_libc_version")
    except (OSError, TypeError):
        return False


def _libc_name() -> str:
    return " ".join(platform.libc_ver()).strip() or f"the C library of {sys.platform}"


needs_glibc = pytest.mark.skipif(
    not _on_glibc(), reason=f"needs glibc; this process runs on {_libc_name()}"
)


class _Library:
    """A stand-in C library that records its mallopt calls and answers
    each with ``answer``."""

    def __init__(self, answer):
        self.answer = answer
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return self.answer


class _Glibc(_Library):
    def gnu_get_libc_version(self):
        return b"2.99"


def test_another_c_library_is_left_alone():
    """A C library without ``gnu_get_libc_version`` (musl, macOS's) gets
    no mallopt call, and nothing is reported applied."""
    lib = _Library(answer=1)
    assert gradlab._set_malloc_thresholds(lib) == ()
    assert lib.calls == []


def test_a_refused_setting_stops_the_rest():
    """A glibc whose mallopt refuses (returns 0) reports nothing applied,
    and the trim threshold is not tried after the mmap one failed."""
    lib = _Glibc(answer=0)
    assert gradlab._set_malloc_thresholds(lib) == ()
    assert lib.calls == [(-3, _MMAP)]


def test_glibc_gets_its_own_ceiling_and_twice_it():
    """The mmap threshold is glibc's dynamic ceiling, ``4 MiB *
    sizeof(long)``, and the trim threshold twice it, in that order."""
    lib = _Glibc(answer=1)
    assert gradlab._set_malloc_thresholds(lib) == _BOTH
    assert lib.calls == [(-3, _MMAP), (-1, 2 * _MMAP)]


@needs_glibc
def test_this_processes_glibc_accepts_both_settings():
    assert gradlab._set_malloc_thresholds() == _BOTH


_FAULT_PROBE = """
import resource, sys
from pathlib import Path

from gradlab.grid import load_field
from gradlab.harness import parse_config, run_experiment

config_path, field_path = sys.argv[1:]
config = parse_config(Path(config_path).read_text())
u = load_field(field_path)
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    audit = run_experiment(config, initial=u)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults, audit.payload["solve"]["total_iterations"])
"""


@needs_glibc
def test_a_repeated_audit_takes_no_page_faults(tmp_path):
    """A fresh process that only re-audits a stored solution keeps the heap
    its first audit grew.  README's config at 96^2, audited four times: each
    audit after the first takes at most 32 minor page faults.  With glibc's
    default thresholds each gives its heap top back and faults it in again,
    about 325 faults per audit here (about 3000 at 192^2)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)[0]
    text = text.replace("cells = 48 48", "cells = 96 96")
    config_path = tmp_path / "readme96.ini"
    config_path.write_text(text)
    field_path = tmp_path / "u.field"
    save_field(field_path, run_experiment(parse_config(text)).u)
    src = str(Path(gradlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE, str(config_path), str(field_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    audits = [tuple(map(int, line.split())) for line in proc.stdout.splitlines()]
    assert [newton for _, newton in audits] == [0, 0, 0, 0]
    assert all(faults <= 32 for faults, _ in audits[1:]), audits
