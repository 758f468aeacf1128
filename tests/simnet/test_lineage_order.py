"""The kernel's flat shard-mode lineage keys against the nested reference.

A shard heap orders same-time events by lineage, and the lineage order is
what makes a ``jobs=N`` run *the* sequential run.  The kernel stores each
lineage as a flat, prefix-free tuple; ``reference_lineage`` keeps the nested
tuples it replaced.  Here random scheduling forests — same-instant cascades
and positive delays on 2–3 shard ranks, fork-inherited entries and chains
that cross the ancestry trim — must sort into the same
permutation under both keys, and every kernel key must be the flattened
reference key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_lineage as reference
from repro.simnet.kernel import _ROOT_CTX, Simulator, _trim_lineage

#: Scheduling instants of forest roots: few, so that ties are common.
INSTANTS = (0.0, 0.25, 0.5)


def _kernel_key(sim, now, parent, rank, seq):
    """The key the kernel allocates at ``now`` on shard ``rank`` (local
    sequence ``seq``) while processing ``parent`` (None: at the root)."""
    sim._now = now
    sim._shard_rank = rank
    sim._shard_ctx = _ROOT_CTX if parent is None else _trim_lineage(parent)
    sim._sequence = seq - 1
    return sim.shard_lineage()


def _inherited_keys(count):
    """The keys of ``count`` heap entries a shard inherits at the fork."""
    sim = Simulator()
    for _ in range(count):
        sim.call_later(1.0, print)
    sim.enter_shard_mode(0)
    return sorted(lineage for _time, lineage, _item in sim._queue)


def _chain(levels):
    """The last key of a same-instant nested cascade ``levels`` below its root."""
    lineage = reference.root(0.0, 0, 1)
    for seq in range(2, levels + 2):
        lineage = reference.child(0.0, lineage, seq % 2, seq)
    return lineage


#: One forest-building operation: (kind, pick, delay, rank, spine length).
#: ``pick`` chooses the parent (or the instant of a new root); ``spine``
#: hangs a same-instant chain of 45–50 levels off the picked node, so
#: chains cross the trim at depths 47, 48 and 49.
OPS = st.tuples(
    st.sampled_from(("root", "inherit", "child", "child", "child", "spine")),
    st.integers(0, 10**6),
    st.sampled_from((0.0, 0.0, 0.25, 0.5)),
    st.integers(0, 2),
    st.integers(45, 50),
)


def _build_forest(num_ranks, ops):
    """Run ``ops``; return ``[(nested key, kernel key)]`` for every node."""
    sim = Simulator()
    sim.enter_shard_mode(0)
    inherited = _inherited_keys(len(ops))
    seqs = [0] * num_ranks
    inherited_seq = 0
    # (nested key, kernel key, time the event is processed)
    nodes = []

    def add_child(parent, delay, rank):
        nested, flat, now = nodes[parent]
        seqs[rank] += 1
        nodes.append((
            reference.child(now, nested, rank, seqs[rank]),
            _kernel_key(sim, now, flat, rank, seqs[rank]),
            now + delay,
        ))

    for kind, pick, delay, rank, length in ops:
        rank %= num_ranks
        instant = INSTANTS[pick % len(INSTANTS)]
        if kind in ("child", "spine") and nodes:
            parent = pick % len(nodes)
            if kind == "child":
                add_child(parent, delay, rank)
                continue
            for level in range(length):
                add_child(parent, 0.0, (rank + level) % num_ranks)
                parent = len(nodes) - 1
        elif kind == "inherit":
            inherited_seq += 1
            nodes.append((
                reference.inherited(inherited_seq),
                inherited[inherited_seq - 1],
                instant + delay,
            ))
        else:  # a root, also for a child or spine drawn before any node exists
            seqs[rank] += 1
            nodes.append((
                reference.root(instant, rank, seqs[rank]),
                _kernel_key(sim, instant, None, rank, seqs[rank]),
                instant + delay,
            ))
    return [(nested, flat) for nested, flat, _now in nodes]


@settings(max_examples=100, deadline=None)
@given(num_ranks=st.integers(2, 3), ops=st.lists(OPS, min_size=1, max_size=10))
def test_flat_keys_sort_like_nested_keys(num_ranks, ops):
    forest = _build_forest(num_ranks, ops)
    nested = [node[0] for node in forest]
    flat = [node[1] for node in forest]
    assert flat == [reference.flatten(key) for key in nested]
    by_nested = sorted(range(len(forest)), key=nested.__getitem__)
    by_flat = sorted(range(len(forest)), key=flat.__getitem__)
    assert by_flat == by_nested
    # Prefix-free: were any key a prefix of another, it would be a prefix of
    # its successor in sorted order.
    ordered = sorted(flat)
    for lower, upper in zip(ordered, ordered[1:]):
        assert upper[: len(lower)] != lower


@pytest.mark.parametrize("levels", (47, 48, 49))
def test_trim_is_the_flattened_nested_trim(levels):
    """Depth 47 stays, depth 48 is trimmed, and the child of a trimmed
    parent (49 levels) is back at depth 24."""
    lineage = _chain(levels)
    flat = reference.flatten(lineage)
    trimmed = _trim_lineage(flat)
    assert trimmed == reference.flatten(reference.trim(lineage))
    assert (trimmed is flat) == (lineage[4] < reference.LINEAGE_REBUILD)
    assert lineage[4] == (24 if levels == 49 else levels)


def test_independent_lockstep_cascades_order_by_their_roots():
    """Two same-instant cascades that share no ancestor — most of a shard
    heap's ties — order by their roots at every depth, trimmed or not."""
    sim = Simulator()
    sim.enter_shard_mode(0)
    nested_first = reference.root(0.0, 0, 1)
    nested_second = reference.root(0.0, 1, 1)
    first = _kernel_key(sim, 0.0, None, 0, 1)
    second = _kernel_key(sim, 0.0, None, 1, 1)
    for seq in range(2, 60):
        nested_first = reference.child(0.0, nested_first, 0, seq)
        nested_second = reference.child(0.0, nested_second, 1, seq)
        first = _kernel_key(sim, 0.0, first, 0, seq)
        second = _kernel_key(sim, 0.0, second, 1, seq)
        assert nested_first < nested_second and first < second
        assert first == reference.flatten(nested_first)


def test_every_scheduling_path_allocates_the_reference_key():
    """Bare callbacks, triggered events, wake-ups and explicit draws all key
    a child by the processed event's trimmed lineage."""
    sim = Simulator()
    sim.enter_shard_mode(1)
    deep = _chain(reference.LINEAGE_REBUILD)
    drawn = []

    def parent(_):
        sim.call_later(1.0, print)
        sim.timeout(1.0)
        sim.wake_at(2.0)
        drawn.append(sim.shard_lineage())

    sim.schedule_foreign(0.5, reference.flatten(deep), parent, None)
    sim.run_window(0.75)
    expected = [reference.flatten(reference.child(0.5, deep, 1, seq)) for seq in (1, 2, 3, 4)]
    assert drawn == expected[3:]
    queued = sorted(lineage for _time, lineage, _item in sim._queue)
    assert queued == sorted(expected[:3])
