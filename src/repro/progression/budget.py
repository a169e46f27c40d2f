"""Cooperative execution budgets for the monitor engines (preemption).

A :class:`Budget` is the one object threaded through the engine core —
``enumerate_traces`` → ``enumerate_segment_outcomes`` →
``TraceProgressor``/``ColumnarSegmentProgressor`` →
``OnlineMonitor``/``SmtMonitor`` — that lets a *running* computation be
interrupted.  Three facets share it:

* a **cancel flag** settable from another thread (or, via ``poll_hook``,
  discovered mid-execution by draining a single-threaded worker's
  inbox): the service layer's ``drop`` frame for the currently executing
  request lands here;
* an optional **wall-clock deadline** (monotonic), the self-preemption
  facet for untrusted or exploratory workloads;
* the **trace budget** (``max_traces``) the monitors already had — the
  pre-existing ``max_traces_per_segment`` plumbing is one facet of the
  same object now, so every engine consults a single limit carrier.

The first two facets are *preemption*: tripping them raises
:class:`~repro.errors.PreemptedError` at the next checkpoint, and the
engine unwinds cooperatively.  The trace facet is *truncation*: hitting
it stops enumeration gracefully and flags the outcome ``truncated``
(counts partial, no error) — the two are deliberately distinct, which is
why :class:`~repro.encoding.verdict_enumerator.SegmentOutcome` carries
separate ``truncated`` and ``preempted`` flags.

Checkpoints are amortized: :meth:`Budget.step` is a counter increment
until ``check_every`` steps have accumulated, then one full check runs
(poll hook, cancel flag, deadline).  Engines call ``step`` per DFS node
/ per progressed program row, so the unwind latency is bounded by one
checkpoint interval of engine work.

Budgets chain: a ``parent`` budget's cancellation preempts every child.
The service worker creates one cancel-only budget per request and the
engines link their own per-segment trace budgets under it.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import PreemptedError

__all__ = ["Budget", "DEFAULT_CHECK_EVERY"]

#: Steps between full checkpoint evaluations.  Small enough that one
#: interval of DFS/progression work is far below human-visible latency,
#: large enough that the per-step cost stays a counter increment.
DEFAULT_CHECK_EVERY = 256


class Budget:
    """Cooperative step/deadline/cancel budget threaded through the engines.

    Parameters
    ----------
    max_traces:
        Per-segment trace budget (the truncation facet); ``None`` is
        unbounded.  Consulted by the enumeration layer via
        :meth:`trace_limit` / :meth:`traces_exhausted`, never raises.
    deadline_seconds:
        Wall-clock allowance from construction time; exceeding it makes
        the next checkpoint raise :class:`PreemptedError`.
    check_every:
        Steps between full checkpoint evaluations.
    poll_hook:
        Zero-argument callable invoked at each checkpoint *before* the
        cancel flag is read.  Single-threaded hosts (the local transport's
        worker loop) use it to drain their inbox so a ``drop`` frame for
        the running request can set the cancel flag mid-execution.
    parent:
        A budget whose cancellation (and poll hook) this one inherits.
        Deadlines are per-budget; cancellation propagates down the chain.
    """

    __slots__ = (
        "max_traces",
        "check_every",
        "poll_hook",
        "parent",
        "_deadline",
        "_cancelled",
        "_reason",
        "_countdown",
    )

    def __init__(
        self,
        max_traces: int | None = None,
        deadline_seconds: float | None = None,
        check_every: int = DEFAULT_CHECK_EVERY,
        poll_hook: Callable[[], None] | None = None,
        parent: "Budget | None" = None,
    ) -> None:
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        self.max_traces = max_traces
        self.check_every = check_every
        self.poll_hook = poll_hook
        self.parent = parent
        self._deadline = (
            None if deadline_seconds is None else time.monotonic() + deadline_seconds
        )
        self._cancelled = False
        self._reason: str | None = None
        self._countdown = check_every

    # -- the cancel facet ---------------------------------------------------------

    def cancel(self, reason: str = "cancelled by caller") -> None:
        """Set the cancel flag (safe from any thread; idempotent).

        The running engine observes it at its next checkpoint and
        unwinds with :class:`PreemptedError`.
        """
        if not self._cancelled:
            self._reason = reason
            self._cancelled = True  # flag last: readers see the reason

    @property
    def cancelled(self) -> bool:
        """True when this budget or any ancestor was cancelled."""
        budget: Budget | None = self
        while budget is not None:
            if budget._cancelled:
                return True
            budget = budget.parent
        return False

    def preempt_reason(self) -> str | None:
        """Why the next checkpoint will (or did) preempt, if known."""
        budget: Budget | None = self
        while budget is not None:
            if budget._cancelled:
                return budget._reason
            budget = budget.parent
        if self._deadline is not None and time.monotonic() >= self._deadline:
            return f"deadline of {self._deadline_text()} exceeded"
        return None

    def _deadline_text(self) -> str:
        return "wall-clock budget"

    # -- checkpoints --------------------------------------------------------------

    def step(self, n: int = 1) -> None:
        """Account ``n`` units of engine work; checkpoint when due.

        Raises :class:`PreemptedError` when the budget (or an ancestor)
        was cancelled or the deadline has passed.  The common case is a
        single integer subtraction.
        """
        self._countdown -= n
        if self._countdown <= 0:
            self._countdown = self.check_every
            self.checkpoint()

    def checkpoint(self) -> None:
        """Run one full check now, regardless of the step counter.

        Order matters: poll hooks run first (they are how a
        single-threaded host *learns* about a cancel), then the cancel
        chain, then the deadline.
        """
        budget: Budget | None = self
        while budget is not None:
            if budget.poll_hook is not None:
                budget.poll_hook()
            if budget._cancelled:
                raise PreemptedError(budget._reason or "cancelled")
            if budget._deadline is not None and time.monotonic() >= budget._deadline:
                raise PreemptedError(
                    f"computation exceeded its wall-clock budget"
                )
            budget = budget.parent

    # -- the trace-budget facet ---------------------------------------------------

    def trace_limit(self) -> int | None:
        """The enumeration limit facet (``None`` when unbounded)."""
        return self.max_traces

    def traces_exhausted(self, enumerated: int) -> bool:
        """True when ``enumerated`` hit the trace budget (truncation)."""
        return self.max_traces is not None and enumerated >= self.max_traces

    # -- plumbing -----------------------------------------------------------------

    @classmethod
    def ensure(
        cls, budget: "Budget | None", max_traces: int | None = None
    ) -> "Budget":
        """Normalize the engine boundary: one Budget from legacy kwargs.

        ``budget=None`` with a bare ``max_traces`` (the pre-preemption
        call shape) builds a truncation-only budget; an existing budget
        without a trace limit adopts ``max_traces`` as a child so the
        caller's cancel/deadline facets still apply.
        """
        if budget is None:
            return cls(max_traces=max_traces)
        if max_traces is not None and budget.max_traces is None:
            return cls(max_traces=max_traces, parent=budget)
        return budget

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        facets = []
        if self.max_traces is not None:
            facets.append(f"max_traces={self.max_traces}")
        if self._deadline is not None:
            facets.append("deadline")
        if self._cancelled:
            facets.append(f"cancelled={self._reason!r}")
        if self.parent is not None:
            facets.append("chained")
        return f"Budget({', '.join(facets)})"
