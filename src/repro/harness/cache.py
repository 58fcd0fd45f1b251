"""Content-addressed on-disk tier for the sweep cache.

A sweep is a pure function of the arguments its builder is called with —
and of the code that computes it.  The runner keys every entry by one rule
(``repro.harness.runner._entry_key``): the builder's module and qualified
name plus every argument it binds, except ``jobs``.  Connection counts,
topology and routing, fleet mode, middleware, edge points, scenario name
and fault plan are all builder arguments, so each namespaces the cache by
itself; a frozen dataclass such as ``Scale`` enters as itself, and its
``repr`` names every field.  What a builder reads from module constants
(``EdgeConfig()`` defaults, service models, the scenario library) is source
code, so the disk tier adds **a code-version salt**: a digest over every
``*.py`` file under ``src/repro``.  Editing any source file changes the
salt, so a stale cache can never satisfy a lookup from newer code; there
is nothing to remember to invalidate.

Entries live under ``$REPRO_CACHE_DIR`` (default ``.repro-cache/`` in the
working directory) as pickle files named by the SHA-256 of their key.
Writes go through a temp file + ``os.replace`` so concurrent processes
(e.g. ``--jobs N`` workers warming the same sweep) never observe a torn
entry; unreadable or truncated entries are treated as misses and removed.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Any, Optional

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

_code_salt: Optional[str] = None


def cache_root() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``./.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


def code_salt() -> str:
    """Digest of every ``repro`` source file (computed once per process)."""
    global _code_salt
    if _code_salt is None:
        package_root = Path(__file__).resolve().parents[1]  # src/repro
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_salt = digest.hexdigest()
    return _code_salt


class DiskCache:
    """Pickle-per-entry cache addressed by hashed key tuples."""

    def __init__(self, root: Optional[Path] = None):
        self.root = Path(root) if root is not None else cache_root()

    def path_for(self, key: tuple) -> Path:
        payload = repr((code_salt(),) + key).encode()
        return self.root / (hashlib.sha256(payload).hexdigest() + ".pkl")

    def get(self, key: tuple) -> Optional[Any]:
        """The cached value, or ``None`` on a miss (or a corrupt entry)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # Torn write from a killed process, incompatible pickle, ...:
            # drop the entry and recompute.
            path.unlink(missing_ok=True)
            return None

    def put(self, key: tuple, value: Any) -> None:
        path = self.path_for(key)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp_name)
            raise

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.pkl"):
                with suppress(OSError):
                    path.unlink()
                    removed += 1
            for path in self.root.glob("*.tmp"):
                with suppress(OSError):
                    path.unlink()
        return removed

