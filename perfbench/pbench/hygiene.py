"""Resource checks around one run: file descriptors and ``/dev/shm``.

A run snapshots both before its set-up and after its teardown. A file
descriptor or a shared-memory segment that is still open afterwards is
a leak, and each leaked resource counts as one failed op.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class Snapshot:
    fds: frozenset[int]
    shm: frozenset[str]


def _list(path: str) -> list[str]:
    try:
        return os.listdir(path)
    except OSError:
        return []


def snapshot() -> Snapshot:
    fds = frozenset(int(name) for name in _list("/proc/self/fd"))
    return Snapshot(fds=fds, shm=frozenset(_list(SHM_DIR)))


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker if the program started it.

    A process pool starts the tracker as a helper process that holds one
    pipe open; stopping it waits for that process to end.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def leaks(before: Snapshot) -> list[str]:
    """Resources open now that were not open at *before*."""
    after = snapshot()
    found = []
    for fd in sorted(after.fds - before.fds):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # the descriptor listdir itself used, already gone
        found.append(f"fd {fd} -> {target}")
    found.extend(f"{SHM_DIR}/{name}" for name in sorted(after.shm - before.shm))
    return found
