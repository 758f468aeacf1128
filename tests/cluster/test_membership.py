"""Tests for the membership manager and the scripted cluster schedule."""

import pytest

from repro.cluster import (
    ACTIVE,
    DRAINING,
    FAILED,
    JOINING,
    LEFT,
    ClusterEvent,
    ClusterSchedule,
    Membership,
)
from repro.errors import ClusterError


class TestMembership:
    def test_initial_states(self):
        membership = Membership(4, initial_active=[0, 2])
        assert membership.state_of(0) == ACTIVE
        assert membership.state_of(1) == LEFT
        assert membership.state_of(2) == ACTIVE
        assert membership.state_of(3) == LEFT
        assert membership.active_nodes() == [0, 2]
        assert membership.version == 0

    def test_default_all_active(self):
        membership = Membership(3)
        assert membership.active_nodes() == [0, 1, 2]

    def test_join_lifecycle(self):
        membership = Membership(3, initial_active=[0, 1])
        membership.begin_join(2, time=1.0)
        assert membership.state_of(2) == JOINING
        assert membership.may_own(2)
        assert membership.worker_nodes() == [0, 1]  # no workers until active
        membership.complete_join(2, time=1.5)
        assert membership.state_of(2) == ACTIVE
        assert membership.worker_nodes() == [0, 1, 2]
        assert membership.version == 2
        assert membership.history == [(1.0, 2, LEFT, JOINING), (1.5, 2, JOINING, ACTIVE)]

    def test_drain_lifecycle(self):
        membership = Membership(2)
        membership.begin_drain(1, time=2.0)
        assert membership.state_of(1) == DRAINING
        assert not membership.may_own(1)
        assert membership.worker_nodes() == [0]
        membership.complete_drain(1, time=3.0)
        assert membership.state_of(1) == LEFT

    def test_fail_from_any_live_state(self):
        membership = Membership(4, initial_active=[0, 1, 2])
        membership.begin_drain(1)
        membership.fail(1)
        assert membership.state_of(1) == FAILED
        membership.begin_join(3)
        membership.fail(3)
        assert membership.state_of(3) == FAILED
        membership.fail(2)
        assert membership.state_of(2) == FAILED

    def test_invalid_transitions_rejected(self):
        membership = Membership(3, initial_active=[0, 1])
        with pytest.raises(ClusterError):
            membership.begin_join(1)  # already active
        with pytest.raises(ClusterError):
            membership.complete_join(2)  # never began joining
        with pytest.raises(ClusterError):
            membership.begin_drain(2)  # not a member
        membership.fail(1)
        with pytest.raises(ClusterError):
            membership.fail(1)  # terminal

    def test_nodes_in_selects_any_of_the_given_states(self):
        membership = Membership(5, initial_active=[0, 1, 2])
        membership.begin_drain(2)
        membership.begin_join(3)
        assert membership.nodes_in(ACTIVE) == [0, 1]
        assert membership.nodes_in(JOINING, DRAINING) == [2, 3]
        assert membership.nodes_in(LEFT, FAILED) == [4]
        assert membership.nodes_in() == []

    def test_seed_node_protected(self):
        membership = Membership(2)
        with pytest.raises(ClusterError):
            membership.begin_drain(0)
        with pytest.raises(ClusterError):
            membership.fail(0)
        with pytest.raises(ClusterError):
            Membership(2, initial_active=[1])

    def test_validation(self):
        with pytest.raises(ClusterError):
            Membership(0)
        with pytest.raises(ClusterError):
            Membership(2, initial_active=[])
        with pytest.raises(ClusterError):
            Membership(2, initial_active=[0, 0])
        with pytest.raises(ClusterError):
            Membership(2, initial_active=[0, 5])
        membership = Membership(2)
        with pytest.raises(ClusterError):
            membership.state_of(9)


class TestClusterSchedule:
    def test_builder_chaining_and_order(self):
        schedule = ClusterSchedule().drain(2.0, node=1).join(0.5, node=2).fail(1.0, node=2)
        kinds = [(event.kind, event.time, event.node) for event in schedule]
        assert kinds == [("join", 0.5, 2), ("fail", 1.0, 2), ("drain", 2.0, 1)]
        assert len(schedule) == 3

    def test_tie_break_is_insertion_order(self):
        schedule = ClusterSchedule().join(1.0, node=1).drain(1.0, node=2)
        assert [event.kind for event in schedule] == ["join", "drain"]

    def test_events_constructor(self):
        events = [ClusterEvent(time=1.0, kind="join", node=1)]
        schedule = ClusterSchedule(events)
        assert schedule.events == events

    def test_validation(self):
        with pytest.raises(ClusterError):
            ClusterEvent(time=-1.0, kind="join", node=1)
        with pytest.raises(ClusterError):
            ClusterEvent(time=0.0, kind="explode", node=1)
        with pytest.raises(ClusterError):
            ClusterEvent(time=0.0, kind="join", node=-1)
        with pytest.raises(ClusterError):
            ClusterSchedule().add("not an event")
