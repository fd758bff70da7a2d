"""SIGTERM unwinds like Ctrl-C.

A supervised run interrupted with Ctrl-C (or killed by a job
scheduler's SIGTERM) must not leave orphaned worker processes or
leaked ``/dev/shm`` segments behind, and its ``$LIMPET_TRACE`` spans
should land on disk.  Python already turns SIGINT into
``KeyboardInterrupt``; :func:`install_signal_handlers` makes SIGTERM
raise ``SystemExit(143)`` the same way, so both take the ordinary
exception path:

1. ``SupervisedRunner.run`` reaps its workers and unlinks its segments
   as the exception passes (its ``except BaseException``);
2. every open ``with`` span closes, annotated ``interrupted=True``;
3. the CLI's ``main`` writes the trace in its ``finally`` and exits
   130 (SIGINT) or 143 (SIGTERM);
4. ``atexit`` closes any runner no run was using.

Nothing runs inside the handler but the raise.  Handlers are installed
only by explicit :func:`install_signal_handlers` (the CLI calls it;
library embedders keep their own signal policy) and only on the main
thread.  Supervised workers reset both signals when they start.
"""

from __future__ import annotations

import signal
import sys
import threading


def _exit(signum, frame):               # pragma: no cover - signal path
    sys.exit(128 + signum)


def install_signal_handlers() -> bool:
    """Make SIGTERM raise ``SystemExit(143)`` (main thread only).

    Returns True when installed, False when the caller is not on the
    main thread.
    """
    if threading.current_thread() is not threading.main_thread():
        return False
    signal.signal(signal.SIGTERM, _exit)
    return True
