"""Every metric the program registers has a reader.

A counter or gauge nobody reads is code to delete, and one that
restates a Diagnostic, a ledger row or a returned report counts the
same fact twice.  This test collects each name registered under
``src/`` (the string literal that is the first argument of a
``counter(`` or ``gauge(`` call) and holds that it is read somewhere:
in ``tests/``, ``.github/`` or ``benchmarks/``, this file aside.
"""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: the first argument of a ``counter(`` / ``gauge(`` call, a string
#: literal, possibly on the next line
REGISTRATION = re.compile(r'\b(?:counter|gauge)\(\s*"([a-z0-9_]+)"')

READER_DIRS = ("tests", ".github", "benchmarks")


def registered_names():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(REGISTRATION.findall(path.read_text()))
    return names


def reader_text():
    own = pathlib.Path(__file__).resolve()
    texts = []
    for top in READER_DIRS:
        for path in (ROOT / top).rglob("*"):
            if path.is_file() and path.resolve() != own \
                    and "__pycache__" not in path.parts:
                texts.append(path.read_text(errors="ignore"))
    return "\n".join(texts)


def test_every_registered_metric_has_a_reader():
    names = registered_names()
    # the scan itself works: the benchmark's two counters are found
    assert {"worker_restarts_total", "degradations_total"} <= names
    text = reader_text()
    unread = sorted(name for name in names if name not in text)
    assert unread == [], f"metrics with no reader: {unread}"
