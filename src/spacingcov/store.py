"""Persisted state: named arrays in one .npz file, keyed by what produced
them.  Loads no scipy."""

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from zipfile import BadZipFile

import numpy as np


class StaleState(RuntimeError):
    """The file holds no state of the requested key, or cannot be read."""


def digest(paths) -> str:
    """sha256 of the files at ``paths``.  A producer reads its own at
    import, so its keys name the code that is running, even if the files
    are edited later."""
    code = b"".join(Path(path).read_bytes() for path in paths)
    return hashlib.sha256(code).hexdigest()


def key(config, source: str, **parts) -> dict:
    """The config, the ``digest`` of the producer's code, the numpy version
    and the further ``parts`` (a library version, a node count)."""
    return {"config": asdict(config), "source": source,
            "numpy": np.__version__, **parts}


def save(path, key: dict, arrays: dict):
    """Write ``arrays`` under ``key``, whole or not at all."""
    tmp = str(path) + ".tmp.npz"     # np.savez appends .npz to other names
    np.savez(tmp, key=json.dumps(key, sort_keys=True), **arrays)
    os.replace(tmp, path)


def load(path, key: dict, names) -> list:
    """The arrays ``names`` of the file at ``path`` if it was saved under
    ``key``; else StaleState, naming the parts of the key that differ."""
    try:
        with np.load(path, allow_pickle=False) as data:
            found = json.loads(str(data["key"]))
            differ = [p for p in sorted(key) if found.get(p) != key[p]]
            if differ:
                raise StaleState(f"{path} was produced by a different "
                                 + ", ".join(differ))
            return [data[name] for name in names]
    except (OSError, EOFError, ValueError, KeyError, BadZipFile) as exc:
        raise StaleState(f"{path} cannot be read: {exc}") from exc
