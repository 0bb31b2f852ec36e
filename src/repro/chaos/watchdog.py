"""Fleet supervision primitives: heartbeats, quarantine, bounded backoff.

These are the *always-on* half of :mod:`repro.chaos` — the machinery the
chaos suite flushed out, useful against real infrastructure failures
whether or not a :class:`~.model.ChaosSpec` is installed:

* **Heartbeats** — a worker touches a per-attempt heartbeat file on a
  short interval; the parent treats a stale file as a wedged worker,
  kills it, and charges the attempt a retryable ``crash`` instead of
  letting the job block a worker slot until its full wall-clock timeout.
* **Quarantine** — a :class:`QuarantineLedger` counts consecutive
  crashes per job fingerprint; a fingerprint that crash-loops past its
  budget is *parked*: it gets a terminal ``quarantined`` record and is
  never executed again by that ledger's owner, so one poison design
  point cannot burn the retry budget of every run that includes it.
* **Bounded backoff with deterministic jitter** —
  :func:`backoff_delay` caps the executor/scheduler/client exponential
  backoff at ``max_s`` and spreads retries with jitter derived from the
  retry key, so a shared-cause failure (say, a dying disk) does not
  synchronize every job's retries into a thundering herd — yet the
  same key always backs off the same way, keeping runs reproducible.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

from .inject import unit_interval

__all__ = [
    "backoff_delay",
    "touch_heartbeat",
    "start_heartbeat",
    "heartbeat_stale",
    "QuarantineLedger",
]


def backoff_delay(attempt: int, base_s: float, max_s: float, *,
                  key: str = "", seed: int = 0) -> float:
    """Capped exponential backoff with deterministic, key-seeded jitter.

    The uncapped curve is ``base_s * 2**(attempt-1)``; it is clamped to
    ``max_s`` and then scaled into ``[0.5, 1.0)`` of itself by a jitter
    draw keyed on ``(key, attempt)`` — different jobs decorrelate,
    identical reruns reproduce.
    """
    exponent = max(0, int(attempt) - 1)
    bounded = min(float(max_s), float(base_s) * (2.0 ** exponent))
    jitter = unit_interval(seed, "backoff", f"{key}:{attempt}")
    return bounded * (0.5 + 0.5 * jitter)


# ---------------------------------------------------------------------------
# Heartbeats


def touch_heartbeat(path: str) -> None:
    """Advance an existing heartbeat file's mtime.

    Never creates the file: whoever watches it made it (the executor's
    ``mkstemp``) and removes it, so a beat that races the removal is a
    no-op instead of a leaked file.
    """
    try:
        os.utime(path, None)
    except OSError:
        pass


def start_heartbeat(path: str, interval_s: float) -> Callable[[], None]:
    """Touch ``path`` every ``interval_s`` from a daemon thread.

    Returns ``stop()``, which ends the thread and waits for it: no beat
    lands after it returns.  Runs in the *worker* process: a healthy
    worker heartbeats even while a long kernel body executes; a wedged
    one (stuck in C, swapped out, SIGSTOPped — or chaos-hung) does not,
    which is exactly the distinction the parent's watchdog needs.
    """
    stopping = threading.Event()
    touch_heartbeat(path)

    def beat() -> None:
        while not stopping.wait(interval_s):
            touch_heartbeat(path)

    thread = threading.Thread(target=beat, name="repro-heartbeat",
                              daemon=True)
    thread.start()

    def stop() -> None:
        stopping.set()
        thread.join()

    return stop


def heartbeat_stale(path: str, deadline_s: float) -> bool:
    """Whether the heartbeat at ``path`` is older than ``deadline_s``."""
    try:
        age = time.time() - os.path.getmtime(path)
    except OSError:
        return False  # not written yet (startup grace) or already reaped
    return age > deadline_s


# ---------------------------------------------------------------------------
# Poison-job quarantine


class QuarantineLedger:
    """Crash-loop accounting per job fingerprint.

    ``limit`` is the crash budget: the Nth *consecutive* crash of a
    fingerprint parks it (``limit=0`` disables the ledger entirely —
    the chaos-off observation-free default for one-shot sweeps).  A
    successful attempt clears the count: only genuine loops quarantine,
    a transiently unlucky job does not.  Thread-safe; shared by every
    worker of a scheduler so strikes aggregate across runs and tenants.
    """

    def __init__(self, limit: int = 0) -> None:
        self.limit = max(0, int(limit))
        self._lock = threading.Lock()
        self._strikes: dict[str, int] = {}
        self._parked: dict[str, str] = {}

    def record_crash(self, fingerprint: str, message: str = "",
                     ) -> str | None:
        """Charge one crash; returns the quarantine reason when this
        strike exhausts the budget (and parks the fingerprint)."""
        if not self.limit:
            return None
        with self._lock:
            strikes = self._strikes.get(fingerprint, 0) + 1
            self._strikes[fingerprint] = strikes
            if strikes < self.limit:
                return None
            reason = (f"quarantined after {strikes} consecutive "
                      f"crash(es): {message or 'crash loop'}")
            self._parked[fingerprint] = reason
            return reason

    def clear(self, fingerprint: str) -> None:
        """A successful attempt: forget the fingerprint's strikes."""
        with self._lock:
            self._strikes.pop(fingerprint, None)

    def reason(self, fingerprint: str) -> str | None:
        """The parked reason, or None when the fingerprint may run."""
        with self._lock:
            return self._parked.get(fingerprint)

    def parked(self) -> dict[str, str]:
        with self._lock:
            return dict(self._parked)

    def as_dict(self) -> dict[str, object]:
        with self._lock:
            return {
                "limit": self.limit,
                "strikes": dict(self._strikes),
                "parked": dict(self._parked),
            }
