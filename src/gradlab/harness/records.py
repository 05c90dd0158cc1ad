"""Immutable, content-addressed run records.

A record is a directory named by the first 16 hex digits of the sha256 of
its payload.  The payload (``record.json``) holds only deterministic data:
the config digest, resolved parameters, and computed results.  Timing and
provenance live in ``meta.json`` so that re-running an identical config
reproduces the payload bit for bit.  The solution field is stored next to
the payload in the package's binary field format.

Records are written atomically: everything goes into a temporary directory
that is renamed into place.  A record that already exists is never
rewritten; persisting on top of it is a cache hit.

Both hashes a run takes, this id and the config digest, use :data:`sha256`
from CPython's built-in module rather than :mod:`hashlib`, which maps
OpenSSL's libcrypto into the process (about 3.4 MB resident) to hash a few
kilobytes.  The digests are the same SHA-256 either way.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from ..grid import ScalarField, load_field, save_field

# hashlib is heavy to load; take the interpreter's own SHA-256 first, as
# CPython's random does for SHA-512
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # built without the module

PAYLOAD_NAME = "record.json"
META_NAME = "meta.json"
FIELD_NAME = "u.field"


def persist_record(
    out_dir: str | Path,
    payload: dict,
    meta: dict,
    u: ScalarField | None = None,
) -> tuple[Path, bool]:
    """Write a record; returns (path, fresh).

    ``fresh`` is False when an identical record already existed, in which
    case nothing is touched.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # canonical JSON, sorted keys and no layout whitespace, encoded once:
    # the id is the hash of the bytes written
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    rid = sha256(data).hexdigest()[:16]
    final = out_dir / rid
    if final.exists():
        return final, False
    tmp = Path(tempfile.mkdtemp(prefix=f".{rid}-", dir=out_dir))
    try:
        (tmp / PAYLOAD_NAME).write_bytes(data)
        (tmp / META_NAME).write_text(json.dumps(meta, sort_keys=True, indent=1))
        if u is not None:
            save_field(tmp / FIELD_NAME, u)
        try:
            os.rename(tmp, final)
        except OSError:
            # lost a race to an identical record; ours is redundant
            if final.exists():
                return final, False
            raise
    finally:
        if tmp.exists():
            for child in tmp.iterdir():
                child.unlink()
            tmp.rmdir()
    return final, True


def load_record(path: str | Path) -> tuple[dict, dict]:
    path = Path(path)
    payload = json.loads((path / PAYLOAD_NAME).read_text())
    meta = json.loads((path / META_NAME).read_text())
    return payload, meta


def load_record_field(path: str | Path) -> ScalarField:
    return load_field(Path(path) / FIELD_NAME)


def list_records(out_dir: str | Path) -> list:
    """Record directories under ``out_dir``, sorted by id."""
    out_dir = Path(out_dir)
    if not out_dir.exists():
        return []
    found = []
    for child in sorted(out_dir.iterdir()):
        if child.is_dir() and (child / PAYLOAD_NAME).exists():
            found.append(child)
    return found
