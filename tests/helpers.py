"""Test doubles shared by more than one test module."""

from __future__ import annotations

import threading


class BlockingAdvisor:
    """Delegates to a real advisor but parks query() on an event, so
    tests can hold requests in flight deterministically."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def query(self, *args, **kwargs):
        self.entered.set()
        self.release.wait(timeout=10)
        return self._inner.query(*args, **kwargs)
