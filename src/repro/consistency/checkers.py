"""Checkers for per-key consistency properties of recorded histories.

Terminology follows §3.4 of the paper and the references therein:

* **Sequential consistency** (Lamport): there is a single total order of all
  operations on a key that (1) respects every worker's program order and
  (2) in which every pull returns the cumulative effect of exactly the pushes
  ordered before it.
* **Client-centric (session) guarantees** (Terry et al.): monotonic reads,
  monotonic writes, read your writes, writes follow reads.
* **Causal consistency** is reported as the conjunction of the four session
  guarantees (a per-key approximation adequate for cumulative single-key
  histories).
* **Eventual consistency**: a read issued after the system quiesced (all
  pushes completed) observes all pushes.

Because pushes are tagged with distinct powers of two
(:class:`~repro.consistency.history.UpdateTagger`), every pull's return value
identifies exactly the set of pushes applied when it was served, which makes
all of these properties decidable from the client-observed history alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from repro.consistency.history import History, Operation


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one consistency check."""

    ok: bool
    property_name: str
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _ok(name: str) -> CheckResult:
    return CheckResult(ok=True, property_name=name)


def _fail(name: str, reason: str) -> CheckResult:
    return CheckResult(ok=False, property_name=name, reason=reason)


# ------------------------------------------------------------------ eventual
def check_eventual(history: History) -> CheckResult:
    """Quiescent reads observe every push."""
    name = "eventual"
    all_pushes = history.push_ids
    if not all_pushes:
        return _ok(name)
    last_push_completion = max(op.completed_at for op in history.pushes)
    quiescent_pulls = [
        op for op in history.pulls if op.invoked_at >= last_push_completion
    ]
    for pull in quiescent_pulls:
        if pull.observed != all_pushes:
            missing = sorted(all_pushes - pull.observed)
            return _fail(
                name,
                f"quiescent pull by worker {pull.worker_id} missed pushes {missing}",
            )
    return _ok(name)


def check_eventual_after(history: History, quiesce_time: float) -> CheckResult:
    """Eventual consistency relative to an explicit quiescence point.

    :func:`check_eventual` places the quiescence point at the completion of
    the last push — appropriate for systems that apply writes at the owner
    before acknowledging them.  A *replicated* PS acknowledges writes locally
    and propagates them asynchronously, so a read issued right after the last
    push may legitimately miss other nodes' writes while the system is still
    converging; the guarantee it does give is that reads issued after the
    propagation quiesced observe everything.  This checker makes that testable:
    pulls invoked at or after ``quiesce_time`` (a time the caller knows the
    synchronization loop to have drained by, e.g. after a final
    synchronization round plus its network delay) must observe every push.

    The §3.4 discussion predicts exactly this weakening for cached/replicated
    reads: between synchronization rounds the strong per-key properties fail
    (see :func:`check_sequential`), while eventual convergence survives.
    """
    name = "eventual (explicit quiescence)"
    all_pushes = history.push_ids
    if not all_pushes:
        return _ok(name)
    quiescent_pulls = [op for op in history.pulls if op.invoked_at >= quiesce_time]
    for pull in quiescent_pulls:
        if pull.observed != all_pushes:
            missing = sorted(all_pushes - pull.observed)
            return _fail(
                name,
                f"pull by worker {pull.worker_id} invoked at {pull.invoked_at:.6f} "
                f"(after quiescence at {quiesce_time:.6f}) missed pushes {missing}",
            )
    return _ok(name)


# ------------------------------------------------------------- session guarantees
def check_monotonic_reads(history: History) -> CheckResult:
    """Successive reads of one worker never lose previously observed pushes."""
    name = "monotonic reads"
    for worker, ops in history.by_worker().items():
        seen = frozenset()
        for op in ops:
            if op.kind != "pull":
                continue
            if not seen.issubset(op.observed):
                lost = sorted(seen - op.observed)
                return _fail(
                    name, f"worker {worker} lost previously observed pushes {lost}"
                )
            seen = op.observed
    return _ok(name)


def check_read_your_writes(history: History) -> CheckResult:
    """A worker's reads observe all of its own earlier writes."""
    name = "read your writes"
    for worker, ops in history.by_worker().items():
        own_pushes = set()
        for op in ops:
            if op.kind == "push":
                own_pushes.add(op.push_id)
            elif not own_pushes.issubset(op.observed):
                missing = sorted(own_pushes - op.observed)
                return _fail(
                    name, f"worker {worker} did not observe its own pushes {missing}"
                )
    return _ok(name)


def check_monotonic_writes(history: History) -> CheckResult:
    """Writes of one worker become visible in program order."""
    name = "monotonic writes"
    program_order: Dict[int, List[int]] = {}
    for worker, ops in history.by_worker().items():
        program_order[worker] = [op.push_id for op in ops if op.kind == "push"]
    for pull in history.pulls:
        for worker, pushes in program_order.items():
            observed_from_worker = [p for p in pushes if p in pull.observed]
            # If push i from this worker is observed, every earlier push of the
            # same worker must be observed as well.
            expected_prefix = pushes[: len(observed_from_worker)]
            if observed_from_worker != expected_prefix:
                return _fail(
                    name,
                    f"pull by worker {pull.worker_id} observed worker {worker}'s "
                    f"pushes out of program order: {observed_from_worker}",
                )
    return _ok(name)


def check_writes_follow_reads(history: History) -> CheckResult:
    """A write issued after a read is never visible without what that read saw."""
    name = "writes follow reads"
    # For each push, the union of everything its issuing worker had observed
    # before issuing it.
    depends_on: Dict[int, frozenset] = {}
    for worker, ops in history.by_worker().items():
        seen: frozenset = frozenset()
        own: set = set()
        for op in ops:
            if op.kind == "pull":
                seen = seen | op.observed
            else:
                depends_on[op.push_id] = frozenset(seen | own)
                own.add(op.push_id)
    for pull in history.pulls:
        for push_id in pull.observed:
            dependencies = depends_on.get(push_id, frozenset())
            if not dependencies.issubset(pull.observed):
                missing = sorted(dependencies - pull.observed)
                return _fail(
                    name,
                    f"pull by worker {pull.worker_id} observed push {push_id} but "
                    f"not its causal dependencies {missing}",
                )
    return _ok(name)


def check_causal(history: History) -> CheckResult:
    """Per-key causal consistency (conjunction of the session guarantees)."""
    name = "causal"
    for check in (
        check_monotonic_reads,
        check_monotonic_writes,
        check_read_your_writes,
        check_writes_follow_reads,
    ):
        result = check(history)
        if not result.ok:
            return _fail(name, f"{result.property_name} violated: {result.reason}")
    return _ok(name)


# ---------------------------------------------------------------- sequential
def check_sequential(history: History) -> CheckResult:
    """Sequential consistency via a constraint-graph acyclicity test.

    Builds a graph over all operations with (a) program-order edges and
    (b) for every pull/push pair on the key, an edge push→pull if the pull
    observed the push and pull→push otherwise.  A total order satisfying the
    definition exists if and only if this graph is acyclic.
    """
    name = "sequential"
    operations = history.operations
    index = {id(op): i for i, op in enumerate(operations)}
    successors: Dict[int, set] = {i: set() for i in range(len(operations))}

    def add_edge(src: Operation, dst: Operation) -> None:
        successors[index[id(src)]].add(index[id(dst)])

    for worker, ops in history.by_worker().items():
        for earlier, later in zip(ops, ops[1:]):
            add_edge(earlier, later)
    pulls = history.pulls
    pushes = history.pushes
    for pull in pulls:
        for push in pushes:
            if push.push_id in pull.observed:
                add_edge(push, pull)
            else:
                add_edge(pull, push)

    cycle = _find_cycle(successors)
    if cycle is None:
        return _ok(name)
    described = " -> ".join(
        f"{operations[i].kind}(worker {operations[i].worker_id}, seq {operations[i].sequence})"
        for i in cycle
    )
    return _fail(name, f"no total order exists; constraint cycle: {described}")


def _find_cycle(successors: Mapping[int, set]) -> Optional[List[int]]:
    """Return one cycle in the directed graph, or None if it is acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in successors}
    stack_trace: List[int] = []

    def visit(node: int) -> Optional[List[int]]:
        color[node] = GRAY
        stack_trace.append(node)
        for successor in successors[node]:
            if color[successor] == GRAY:
                start = stack_trace.index(successor)
                return stack_trace[start:] + [successor]
            if color[successor] == WHITE:
                cycle = visit(successor)
                if cycle is not None:
                    return cycle
        stack_trace.pop()
        color[node] = BLACK
        return None

    for node in successors:
        if color[node] == WHITE:
            cycle = visit(node)
            if cycle is not None:
                return cycle
    return None


def check_sequential_exhaustive(history: History, max_operations: int = 12) -> CheckResult:
    """Exhaustively search for a witness total order (small histories only).

    This is an independent (much slower) implementation used to cross-check
    :func:`check_sequential` in the test-suite.
    """
    name = "sequential (exhaustive)"
    if len(history) > max_operations:
        return _fail(
            name,
            f"history has {len(history)} operations; exhaustive search is limited to "
            f"{max_operations}",
        )
    by_worker = history.by_worker()
    workers = sorted(by_worker.keys())
    positions = {worker: 0 for worker in workers}

    def backtrack(applied: frozenset) -> bool:
        finished = all(positions[w] == len(by_worker[w]) for w in workers)
        if finished:
            return True
        for worker in workers:
            pos = positions[worker]
            if pos == len(by_worker[worker]):
                continue
            op = by_worker[worker][pos]
            if op.kind == "pull" and op.observed != applied:
                continue
            positions[worker] += 1
            next_applied = applied | {op.push_id} if op.kind == "push" else applied
            if backtrack(next_applied):
                positions[worker] -= 1
                return True
            positions[worker] -= 1
        return False

    if backtrack(frozenset()):
        return _ok(name)
    return _fail(name, "no interleaving consistent with program order reproduces the reads")


# ------------------------------------------------------------------- reports
#: The properties reported in Table 1 of the paper, in table order.
TABLE1_PROPERTIES = (
    "eventual",
    "client-centric",
    "causal",
    "sequential",
)


def consistency_report(histories: Iterable[History]) -> Dict[str, bool]:
    """Evaluate the Table 1 properties over a collection of per-key histories.

    Returns a mapping from property name to whether the property held for
    *every* history.
    """
    report = {name: True for name in TABLE1_PROPERTIES}
    for history in histories:
        if not check_eventual(history).ok:
            report["eventual"] = False
        client_centric = (
            check_monotonic_reads(history).ok
            and check_monotonic_writes(history).ok
            and check_read_your_writes(history).ok
            and check_writes_follow_reads(history).ok
        )
        if not client_centric:
            report["client-centric"] = False
        if not check_causal(history).ok:
            report["causal"] = False
        if not check_sequential(history).ok:
            report["sequential"] = False
    return report
