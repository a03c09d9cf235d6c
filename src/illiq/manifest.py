"""Canonical hashing and run manifests for auditable outputs."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, field


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    """Hex SHA-256 of the canonical JSON serialization."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read a megabyte at a time."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            sha.update(chunk)
    return sha.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """What a command did: its inputs' hashes, the files it wrote (``outputs``,
    names in the manifest's directory) with the SHA-256 of each
    (``output_sha256``), the seconds its stages took (``timings_s``) and
    what else it measured, as plain numbers (``meta``)."""

    command: str
    config_hash: str
    grid_hash: str
    seed: int | None
    tool_version: str
    wall_time_s: float
    outputs: tuple
    output_sha256: dict
    timings_s: dict
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["outputs"] = list(self.outputs)
        return d


def write_manifest(manifest: RunManifest, path) -> None:
    """Write atomically (temp file + rename) next to the outputs it describes."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
