"""Cluster membership: node lifecycle states and transitions.

A static parameter server fixes its node set at construction; the elastic
cluster runtime lets it change at run time.  :class:`Membership` is the
control-plane record of that change: every node of the cluster's *capacity*
(``ClusterConfig.num_nodes``) is in exactly one lifecycle state, and the
runtime drives it through the transitions below.

::

    left ──join──▶ joining ──rebalance done──▶ active ──drain──▶ draining
                      │  ▲                        │                 │
                      └──│───fail──▶  failed  ◀───┴──────fail───────┘
                         └─────rejoin────┘        draining ──empty──▶ left

* ``left`` — not part of the cluster (reserve capacity, or gracefully
  departed).  Holds no keys, runs no workers.
* ``joining`` — announced itself; the rebalancer is migrating its key share
  (via the relocation protocol).  May already receive keys, runs no workers
  yet.
* ``active`` — full member: owns keys, its workers participate in epochs.
* ``draining`` — asked to leave gracefully: its workers finish the current
  epoch and stop; the rebalancer migrates its keys away; when it owns
  nothing it becomes ``left``.  A PS whose policy cannot relocate (static
  allocation) keeps the node ``draining`` forever — precisely the
  inelasticity the paper ascribes to classic parameter servers.
* ``failed`` — crashed: its traffic is dropped, its keys are recovered from
  replicas or the durable log, or declared lost.  Terminal unless the
  machine comes back: ``rejoin`` restarts it through the normal ``joining``
  path (empty-handed — its volatile state died with it; the rebalancer
  migrates a fresh key share to it like any other joiner).

Node 0 is the *seed node* (it hosts the barrier coordinator and anchors the
control plane) and can never drain, fail, or leave.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ClusterError

#: Lifecycle states (see module docstring).
JOINING = "joining"
ACTIVE = "active"
DRAINING = "draining"
FAILED = "failed"
LEFT = "left"

#: All states, in lifecycle order.
STATES = (JOINING, ACTIVE, DRAINING, FAILED, LEFT)


class Membership:
    """The lifecycle state of every node in an elastic cluster.

    Transitions are validated; each one bumps :attr:`version` and is recorded
    in :attr:`history` as ``(time, node, old_state, new_state)``.
    """

    def __init__(self, num_nodes: int, initial_active: Optional[Sequence[int]] = None) -> None:
        if num_nodes < 1:
            raise ClusterError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        active = list(range(num_nodes)) if initial_active is None else sorted(
            int(node) for node in initial_active
        )
        if not active:
            raise ClusterError("initial active set must not be empty")
        if len(set(active)) != len(active):
            raise ClusterError(f"initial active set contains duplicates: {active}")
        for node in active:
            self._check_node(node)
        if 0 not in active:
            raise ClusterError("node 0 (the seed node) must be initially active")
        active_set = set(active)
        self._states: Dict[int, str] = {
            node: ACTIVE if node in active_set else LEFT for node in range(num_nodes)
        }
        #: Monotone counter, bumped once per transition.
        self.version = 0
        #: Transition log: (simulated time, node, old state, new state).
        self.history: List[Tuple[float, int, str, str]] = []
        #: Restarts per node (``rejoin`` calls): tells a machine's messages
        #: from those of its earlier, crashed incarnations.
        self.incarnations: Dict[int, int] = dict.fromkeys(range(num_nodes), 0)

    # ------------------------------------------------------------------ checks
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ClusterError(f"node {node} out of range [0, {self.num_nodes})")

    def _transition(self, node: int, allowed_from: Tuple[str, ...], to: str, time: float) -> None:
        self._check_node(node)
        if node == 0 and to != ACTIVE:
            raise ClusterError("node 0 is the seed node and cannot drain, fail, or leave")
        old = self._states[node]
        if old not in allowed_from:
            raise ClusterError(
                f"node {node} cannot go {old} -> {to} (allowed from: {', '.join(allowed_from)})"
            )
        self._states[node] = to
        self.version += 1
        self.history.append((time, node, old, to))

    # ------------------------------------------------------------------ queries
    def state_of(self, node: int) -> str:
        """Lifecycle state of ``node``."""
        self._check_node(node)
        return self._states[node]

    def nodes_in(self, *states: str) -> List[int]:
        """Nodes currently in any of ``states`` (sorted)."""
        return sorted(node for node, state in self._states.items() if state in states)

    def active_nodes(self) -> List[int]:
        """Full members (sorted)."""
        return self.nodes_in(ACTIVE)

    def worker_nodes(self) -> List[int]:
        """Nodes whose workers participate in the next epoch (sorted).

        Only fully active nodes compute; joining nodes first receive their
        key share, draining nodes finish up and stop.
        """
        return self.nodes_in(ACTIVE)

    def may_own(self, node: int) -> bool:
        """Whether ``node`` may (still) acquire key ownership.

        Joining nodes receive their rebalanced share; draining, failed, and
        departed nodes must not re-acquire keys (the drain gate in
        :meth:`repro.ps.lapse.RelocationPolicy.process_localize_at_home`).
        """
        self._check_node(node)
        return self._states[node] in (JOINING, ACTIVE)

    # -------------------------------------------------------------- transitions
    def begin_join(self, node: int, time: float = 0.0) -> None:
        """A departed/reserve node announces itself (``left -> joining``)."""
        self._transition(node, (LEFT,), JOINING, time)

    def complete_join(self, node: int, time: float = 0.0) -> None:
        """The joining node received its key share (``joining -> active``)."""
        self._transition(node, (JOINING,), ACTIVE, time)

    def begin_drain(self, node: int, time: float = 0.0) -> None:
        """A member starts leaving gracefully (``active -> draining``)."""
        self._transition(node, (ACTIVE,), DRAINING, time)

    def complete_drain(self, node: int, time: float = 0.0) -> None:
        """The draining node owns nothing anymore (``draining -> left``)."""
        self._transition(node, (DRAINING,), LEFT, time)

    def fail(self, node: int, time: float = 0.0) -> None:
        """A member crashes (``joining/active/draining -> failed``, terminal)."""
        self._transition(node, (JOINING, ACTIVE, DRAINING), FAILED, time)

    def rejoin(self, node: int, time: float = 0.0) -> None:
        """A crashed machine comes back empty-handed (``failed -> joining``)."""
        self._transition(node, (FAILED,), JOINING, time)
        self.incarnations[node] += 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        summary = ", ".join(f"{node}:{state}" for node, state in sorted(self._states.items()))
        return f"<Membership v{self.version} {summary}>"
