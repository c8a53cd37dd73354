"""A reentrant, writer-preferring read-write lock.

The engine serializes *mutations* while letting SELECTs run concurrently:
readers share the lock, writers exclude everyone. Statement execution
nests — a trigger body runs statements while its firing already holds the
write side, ``INSERT ... SELECT`` runs a read-side SELECT under a
write-side INSERT — so both sides are reentrant per thread:

* a thread holding either side may re-acquire the read side;
* a thread holding the write side may re-acquire the write side;
* a thread holding *only* the read side must not request the write side
  (a classic upgrade deadlock when two readers try it); the lock raises
  ``RuntimeError`` instead of deadlocking, because in this engine trigger
  actions always fire after the reading query has released its lock.

Writers are preferred: once a writer is waiting, new first-time readers
queue behind it, so a stream of short SELECTs cannot starve DML.
"""

from __future__ import annotations

import threading
from threading import get_ident


class ReadWriteLock:
    """Shared/exclusive lock with per-thread reentrancy.

    Re-entering a side the calling thread already holds — or reading
    under its own write side — skips the condition variable: the
    thread's own reader count and the write side's owner and nesting
    change only on the owning thread while it holds them, so a nested
    statement (a trigger action, the SELECT of an ``INSERT ... SELECT``)
    pays no lock round trip that another thread could contend.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        #: thread ident -> read-side nesting depth
        self._readers: dict[int, int] = {}
        self._writer: int | None = None
        self._writer_nesting = 0
        self._writers_waiting = 0
        self._read_side = _ReadSide(self)
        self._write_side = _WriteSide(self)

    # ------------------------------------------------------------------
    # read side

    def acquire_read(self) -> None:
        me = get_ident()
        readers = self._readers
        nesting = readers.get(me)
        if nesting is not None:
            readers[me] = nesting + 1
            return
        if self._writer == me:
            # a nested statement on the thread holding the write side
            # never blocks (and never deadlocks against itself); no
            # other thread can hold or take the read side meanwhile
            readers[me] = 1
            return
        with self._condition:
            while self._writer is not None or self._writers_waiting:
                self._condition.wait()
            readers[me] = 1

    def release_read(self) -> None:
        me = get_ident()
        readers = self._readers
        nesting = readers.get(me)
        if nesting is None:
            raise RuntimeError("release_read without acquire_read")
        if nesting > 1:
            readers[me] = nesting - 1
            return
        if self._writer == me:
            del readers[me]  # nobody waits on the writer's own read
            return
        with self._condition:
            del readers[me]
            self._condition.notify_all()

    # ------------------------------------------------------------------
    # write side

    def acquire_write(self) -> None:
        me = get_ident()
        if self._writer == me:
            self._writer_nesting += 1
            return
        with self._condition:
            if me in self._readers:
                raise RuntimeError(
                    "read-to-write lock upgrade would deadlock; release "
                    "the read side before acquiring the write side"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._condition.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_nesting = 1

    def release_write(self) -> None:
        if self._writer != get_ident():
            raise RuntimeError("release_write without acquire_write")
        if self._writer_nesting > 1:
            self._writer_nesting -= 1
            return
        with self._condition:
            self._writer_nesting = 0
            self._writer = None
            self._condition.notify_all()

    # ------------------------------------------------------------------
    # context managers and introspection

    def read(self) -> "_ReadSide":
        """``with lock.read():`` — hold the read side for the block."""
        return self._read_side

    def write(self) -> "_WriteSide":
        """``with lock.write():`` — hold the write side for the block."""
        return self._write_side

    def held_read(self) -> bool:
        """True when the calling thread holds the read side."""
        with self._condition:
            return get_ident() in self._readers

    def held_write(self) -> bool:
        """True when the calling thread holds the write side."""
        with self._condition:
            return self._writer == get_ident()


class _ReadSide:
    """``with lock.read():`` (reusable: the lock tracks the nesting)."""

    __slots__ = ("_lock",)

    def __init__(self, lock: ReadWriteLock) -> None:
        self._lock = lock

    def __enter__(self) -> ReadWriteLock:
        self._lock.acquire_read()
        return self._lock

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._lock.release_read()


class _WriteSide:
    """``with lock.write():`` (reusable: the lock tracks the nesting)."""

    __slots__ = ("_lock",)

    def __init__(self, lock: ReadWriteLock) -> None:
        self._lock = lock

    def __enter__(self) -> ReadWriteLock:
        self._lock.acquire_write()
        return self._lock

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._lock.release_write()


__all__ = ["ReadWriteLock"]
