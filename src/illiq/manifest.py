"""SHA-256 digests of configs and output files, and the atomic write of a
run's ``manifest.json``, a plain dict that ``cli._Run.finish`` builds."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


def digest(obj) -> str:
    """Hex SHA-256 of the canonical JSON serialization (sorted keys, no spaces)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read a megabyte at a time."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
    return sha.hexdigest()


def write_manifest(manifest: dict, path) -> None:
    """Write atomically (temp file + rename) next to the outputs it describes."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
