"""Worker-side bookkeeping shared by the hardware-accelerated runtimes.

A worker thread that consumes work from Picos has to pair every successful
fetch with a previously issued Ready Task Request (Section IV-E.4): the
request tells Picos Manager to move one ready descriptor into this core's
private ready queue, and the Fetch SW ID / Fetch Picos ID pair later drains
it.  :class:`HwWorkerContext` tracks the outstanding-request balance for one
core and wraps the three steps (request, fetch, wait-for-work) so that both
Nanos-RV and Phentos worker loops can share them.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cpu.soc import SoC
from repro.runtime.base import wait_for_signals
from repro.runtime.hw_interface import (
    FetchedTask,
    fetch_ready_task,
    request_ready_task,
)
from repro.sim.engine import Delay, Event

__all__ = ["HwWorkerContext"]

#: Short pause after a rejected Ready Task Request before retrying, so the
#: routing queue is not hammered every cycle.
_REQUEST_RETRY_CYCLES = 16
_REQUEST_RETRY = Delay(_REQUEST_RETRY_CYCLES)


class HwWorkerContext:
    """Per-core work-fetch state for runtimes using the custom instructions."""

    def __init__(self, soc: SoC, core_id: int, done: Event) -> None:
        self.soc = soc
        self.core = soc.core(core_id)
        self.core_id = core_id
        self.done = done
        self.outstanding_requests = 0
        self.tasks_fetched = 0
        self.fetch_failures = 0

    # ------------------------------------------------------------------ #
    # Request / fetch protocol
    # ------------------------------------------------------------------ #
    def ensure_request(self) -> Generator:
        """Issue a Ready Task Request when none is outstanding.

        Returns True if, after this call, at least one request is
        outstanding for the core (i.e. a later fetch may succeed).
        """
        if self.outstanding_requests > 0:
            return True
        accepted = yield from request_ready_task(self.core)
        if accepted:
            self.outstanding_requests += 1
            return True
        # Routing queue full: retry a bit later; the caller decides whether
        # to do alternative work in the meantime.
        yield _REQUEST_RETRY
        return False

    def try_fetch(self) -> Generator:
        """Attempt one fetch; returns a :class:`FetchedTask` or ``None``."""
        fetched: Optional[FetchedTask] = yield from fetch_ready_task(self.core)
        if fetched is None:
            self.fetch_failures += 1
            return None
        self.outstanding_requests -= 1
        self.tasks_fetched += 1
        return fetched

    def wait_for_work(self) -> Generator:
        """Sleep until the private ready queue fills or the program ends."""
        queue = self.soc.manager.core_ready_queue(self.core_id)
        yield from wait_for_signals(self.soc, queues=(queue,),
                                    events=(self.done,))

    def acquire_task(self, help_while_stalled=None) -> Generator:
        """Obtain one ready task, or ``None`` once the program has ended.

        The full request → fetch → wait loop.  ``help_while_stalled`` is an
        optional generator factory invoked while the request path is
        rejected (used by the main thread to switch roles instead of
        blocking — the paper's deadlock-avoidance pattern).
        """
        while True:
            if self.done.triggered:
                return None
            requested = yield from self.ensure_request()
            if not requested:
                if help_while_stalled is not None:
                    yield from help_while_stalled()
                continue
            fetched = yield from self.try_fetch()
            if fetched is not None:
                return fetched
            if self.done.triggered:
                return None
            yield from self.wait_for_work()
