"""Advisory file locking for cross-process store mutation.

The kernel cache (``repro.runtime.kernel_cache``) and a bundle under
construction (``repro.aot.build``) are shared by every process of a
sweep — and, with the supervised multiprocess tier, by worker processes
too.  Their writes were already *atomic* (tmp file + ``os.replace``), which
keeps every reader seeing a valid file, but atomicity alone cannot
stop two concurrent read-modify-write cycles from dropping each
other's updates (last writer wins).  This module adds the missing
piece: an advisory ``fcntl.flock`` around each mutation, so concurrent
writers serialize instead of interleaving.

Design constraints:

* **advisory, never mandatory** — a reader that ignores the lock still
  sees a valid file thanks to the atomic-replace discipline;
* **availability over strictness** — when the lock cannot be taken
  (no ``fcntl`` on this platform, unwritable lock path, or a holder
  that outlives ``timeout``), the context still yields and the caller
  proceeds unlocked; callers that need to know receive the boolean;
* **crash-safe by construction** — ``flock`` locks die with their
  process, so a killed worker can never leave the cache wedged (the
  exact property a supervised fleet needs from its shared tiers).
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import time
from typing import Iterator, Union

try:                                    # POSIX only; gate, don't require
    import fcntl as _fcntl
except ImportError:                     # pragma: no cover - non-POSIX
    _fcntl = None

#: default seconds to wait for a held lock before proceeding unlocked
DEFAULT_LOCK_TIMEOUT = 10.0

#: seconds between lock-acquisition attempts
_POLL_INTERVAL = 0.005


def locking_available() -> bool:
    """True when this platform supports ``fcntl`` advisory locks."""
    return _fcntl is not None


@contextlib.contextmanager
def file_lock(path: Union[str, pathlib.Path],
              timeout: float = DEFAULT_LOCK_TIMEOUT,
              shared: bool = False) -> Iterator[bool]:
    """Hold an advisory lock on ``path`` for the duration of the block.

    Yields True when the lock was acquired, False when the caller is
    proceeding unlocked (unsupported platform, unwritable lock file, or
    acquisition timed out).  The lock file itself carries no data — it
    exists only to be flocked — and is deliberately left in place
    (unlinking a lock file open in another process reintroduces the
    race the lock exists to prevent).
    """
    if _fcntl is None:                  # pragma: no cover - non-POSIX
        yield False
        return
    path = pathlib.Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    except OSError:
        yield False
        return
    acquired = False
    try:
        flag = _fcntl.LOCK_SH if shared else _fcntl.LOCK_EX
        deadline = time.monotonic() + timeout
        while True:
            try:
                _fcntl.flock(fd, flag | _fcntl.LOCK_NB)
                acquired = True
                break
            except OSError:
                if time.monotonic() >= deadline:
                    break
                time.sleep(_POLL_INTERVAL)
        yield acquired
    finally:
        # closing the descriptor releases the flock atomically
        os.close(fd)
