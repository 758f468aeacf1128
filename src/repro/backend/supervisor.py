"""Supervised child processes: what both forked engines are run by.

The real backend (:mod:`repro.backend.real`) and the sharded simulator
(:mod:`repro.simnet.parallel`) fork children that report back and must never
hang or outlive a failure.  A :class:`ProcessGroup` is that and nothing else:

* :meth:`~ProcessGroup.spawn` forks a named daemon child on the group's fork
  context and gives it a report pipe of its own.  The parent keeps only the
  read end, so a child's death is an end-of-file there;
* :meth:`~ProcessGroup.gather` waits on report pipes **and process sentinels
  together** under one deadline: a child that fails reports its traceback, a
  child that exits — killed, or with status 0 — while it still owes a report
  is noticed at once, and either ends the wait with a
  :class:`~repro.errors.ParameterServerError` naming it;
* :meth:`~ProcessGroup.close` is the one teardown: time to exit unaided,
  then terminate, join and close the pipes.  As a context manager a group
  closes on the way out — with that time after a completed run, at once
  after a failure.
"""

from __future__ import annotations

import time
import traceback
from multiprocessing import connection
from typing import Any, Callable, List, NamedTuple, Sequence

from repro.errors import ParameterServerError


#: Seconds children that have reported get to exit by themselves.
EXIT_GRACE = 5.0


class Child(NamedTuple):
    """A spawned process and the read end of its report pipe."""

    process: Any
    receiver: Any


def _child_main(target: Callable, sender: Any, args: tuple) -> None:
    """Body of every child: ``target(report, *args)``, a failure reported as
    its traceback.  ``SystemExit`` is left alone — the child then exits owing
    its report, which the parent notices."""
    try:
        target(lambda message: sender.send((None, message)), *args)
    except Exception:
        sender.send((traceback.format_exc(), None))


class ProcessGroup:
    """Named daemon children of one fork context, watched together."""

    def __init__(self, ctx: Any, label: str) -> None:
        self.ctx = ctx
        #: What the children are part of, for error messages.
        self.label = label
        self.children: List[Child] = []

    def spawn(self, name: str, target: Callable, *args: Any) -> Child:
        """Fork ``target(report, *args)`` as the daemon child ``name``;
        ``report(message)`` hands one picklable message to :meth:`gather`."""
        receiver, sender = self.ctx.Pipe(duplex=False)
        process = self.ctx.Process(
            target=_child_main, args=(target, sender, args), name=name, daemon=True
        )
        process.start()
        # The child holds the only write end: its death is an EOF here, and
        # children forked later inherit nothing that could keep the pipe open.
        sender.close()
        child = Child(process, receiver)
        self.children.append(child)
        return child

    def gather(
        self, owing: Sequence[Child], deadline: float, watching: Sequence[Child] = ()
    ) -> List[Any]:
        """One report from each child in ``owing``, in that order.

        Raises :class:`ParameterServerError` naming the child when one of
        ``owing`` or ``watching`` reports a failure or exits while it owes a
        report (``watching`` children owe none: they just have to stay alive),
        and when ``deadline`` (``time.monotonic()`` seconds) passes.
        """
        reports = {}
        handles = {}
        for child in (*owing, *watching):
            handles[child.receiver] = handles[child.process.sentinel] = child
        pending = set(owing)
        while pending:
            ready = connection.wait(list(handles), max(0.0, deadline - time.monotonic()))
            if not ready:
                raise ParameterServerError(
                    f"{self.label} timed out waiting for "
                    f"{', '.join(sorted(child.process.name for child in pending))} "
                    "(deadlock or overload)"
                )
            gone, failed = [], []
            for child in {handles[handle] for handle in ready}:
                try:
                    # An exited child's last words may still sit in its pipe;
                    # with only the sentinel ready it left without any.
                    if not child.receiver.poll():
                        raise EOFError
                    failure, message = child.receiver.recv()
                except EOFError:
                    gone.append(child.process)
                    continue
                if failure is not None or child not in pending:
                    failed.append((child.process, failure or f"unexpected report {message!r}"))
                    continue
                reports[child] = message
                pending.remove(child)
                del handles[child.receiver], handles[child.process.sentinel]
            if gone:
                # A child that vanished explains the failures of its peers,
                # not the other way round: name it first.
                gone[0].join(timeout=1.0)
                raise ParameterServerError(
                    f"{self.label} process {gone[0].name} exited with code "
                    f"{gone[0].exitcode} while it still owed a report"
                )
            if failed:
                process, failure = failed[0]
                raise ParameterServerError(
                    f"{self.label} process {process.name} failed:\n{failure}"
                )
        return [reports[child] for child in owing]

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, exc_type: Any, exc_value: Any, exc_traceback: Any) -> None:
        self.close(grace=0.0 if exc_type else EXIT_GRACE)

    def close(self, grace: float = 0.0) -> None:
        """No child outlives this call: each gets what is left of ``grace``
        seconds to exit by itself, survivors are terminated, all are joined."""
        deadline = time.monotonic() + grace
        for process, _ in self.children:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
        for process, _ in self.children:
            if process.is_alive():
                process.terminate()
        for process, receiver in self.children:
            process.join(timeout=5.0)
            receiver.close()
        self.children.clear()
