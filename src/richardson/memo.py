"""Process-wide memo tables, one mechanism for all of them.

``@memoized(key)`` gives a function one table, registered here so that
``clear_memos()`` empties every table of the package at once.  A call reads
the table; on a miss it computes outside the lock, so a memoized function
may recurse into itself or another memoized function, and then stores with
``setdefault`` under the lock, so every caller gets the first object stored
for a key, however many threads race to compute it.
"""

from __future__ import annotations

import threading
from functools import wraps

_TABLES: list[dict] = []
_LOCK = threading.Lock()


def memoized(key=None):
    """Memoize a function in a registered table.

    key maps the call's arguments to the table key; without it the
    function takes one hashable argument, which is the key.
    """

    def decorate(fn):
        table: dict = {}
        _TABLES.append(table)
        if key is None:

            @wraps(fn)
            def cached(arg):
                try:
                    return table[arg]
                except KeyError:
                    pass
                out = fn(arg)
                with _LOCK:
                    return table.setdefault(arg, out)

        else:

            @wraps(fn)
            def cached(*args, **kwargs):
                k = key(*args, **kwargs)
                try:
                    return table[k]
                except KeyError:
                    pass
                out = fn(*args, **kwargs)
                with _LOCK:
                    return table.setdefault(k, out)

        return cached

    return decorate


def clear_memos() -> None:
    """Empty every memo table of the package."""
    with _LOCK:
        for table in _TABLES:
            table.clear()
