"""Exhaustive FSM transition tests."""

import pytest

from repro.bgp.fsm import BGPStateMachine, FsmError, FsmEvent, State


def test_happy_path_to_established():
    fsm = BGPStateMachine()
    assert fsm.state == State.IDLE
    fsm.fire(FsmEvent.MANUAL_START)
    assert fsm.state == State.CONNECT
    fsm.fire(FsmEvent.TRANSPORT_CONNECTED)
    assert fsm.state == State.OPEN_SENT
    fsm.fire(FsmEvent.OPEN_RECEIVED)
    assert fsm.state == State.OPEN_CONFIRM
    fsm.fire(FsmEvent.KEEPALIVE_RECEIVED)
    assert fsm.established


def test_transport_failure_goes_active():
    fsm = BGPStateMachine()
    fsm.fire(FsmEvent.MANUAL_START)
    fsm.fire(FsmEvent.TRANSPORT_FAILED)
    assert fsm.state == State.ACTIVE
    fsm.fire(FsmEvent.TRANSPORT_CONNECTED)
    assert fsm.state == State.OPEN_SENT


@pytest.mark.parametrize(
    "reset",
    [
        FsmEvent.MANUAL_STOP,
        FsmEvent.NOTIFICATION_RECEIVED,
        FsmEvent.HOLD_TIMER_EXPIRED,
        FsmEvent.OPEN_INVALID,
    ],
)
@pytest.mark.parametrize(
    "setup",
    [
        [],
        [FsmEvent.MANUAL_START],
        [FsmEvent.MANUAL_START, FsmEvent.TRANSPORT_CONNECTED],
        [FsmEvent.MANUAL_START, FsmEvent.TRANSPORT_CONNECTED, FsmEvent.OPEN_RECEIVED],
        [
            FsmEvent.MANUAL_START,
            FsmEvent.TRANSPORT_CONNECTED,
            FsmEvent.OPEN_RECEIVED,
            FsmEvent.KEEPALIVE_RECEIVED,
        ],
    ],
)
def test_reset_events_from_any_state(setup, reset):
    fsm = BGPStateMachine()
    for event in setup:
        fsm.fire(event)
    fsm.fire(reset)
    assert fsm.state == State.IDLE


def test_illegal_events_raise():
    fsm = BGPStateMachine()
    with pytest.raises(FsmError):
        fsm.fire(FsmEvent.UPDATE_RECEIVED)
    fsm.fire(FsmEvent.MANUAL_START)
    with pytest.raises(FsmError):
        fsm.fire(FsmEvent.OPEN_RECEIVED)


def test_update_requires_established():
    fsm = BGPStateMachine()
    fsm.fire(FsmEvent.MANUAL_START)
    fsm.fire(FsmEvent.TRANSPORT_CONNECTED)
    with pytest.raises(FsmError):
        fsm.fire(FsmEvent.UPDATE_RECEIVED)


def test_keepalive_keeps_established():
    fsm = BGPStateMachine()
    for event in [
        FsmEvent.MANUAL_START,
        FsmEvent.TRANSPORT_CONNECTED,
        FsmEvent.OPEN_RECEIVED,
        FsmEvent.KEEPALIVE_RECEIVED,
        FsmEvent.KEEPALIVE_RECEIVED,
        FsmEvent.UPDATE_RECEIVED,
    ]:
        fsm.fire(event)
    assert fsm.established


def test_history_and_observers():
    fsm = BGPStateMachine()
    seen = []
    fsm.observers.append(lambda old, event, new: seen.append((old, new)))
    fsm.fire(FsmEvent.MANUAL_START)
    assert seen == [(State.IDLE, State.CONNECT)]
    assert fsm.history[0] == (State.IDLE, FsmEvent.MANUAL_START, State.CONNECT)


def test_history_is_bounded_to_the_most_recent_transitions():
    fsm = BGPStateMachine()
    for event in [
        FsmEvent.MANUAL_START,
        FsmEvent.TRANSPORT_CONNECTED,
        FsmEvent.OPEN_RECEIVED,
        FsmEvent.KEEPALIVE_RECEIVED,
    ]:
        fsm.fire(event)
    keep = fsm.history.maxlen
    for _ in range(keep - 4):
        fsm.fire(FsmEvent.KEEPALIVE_RECEIVED)
    assert len(fsm.history) == keep
    assert fsm.history[0] == (State.IDLE, FsmEvent.MANUAL_START, State.CONNECT)
    # One more than fits: the oldest transition goes, the newest is kept.
    fsm.fire(FsmEvent.UPDATE_RECEIVED)
    assert len(fsm.history) == keep
    assert fsm.history[0] == (State.CONNECT, FsmEvent.TRANSPORT_CONNECTED, State.OPEN_SENT)
    assert fsm.history[-1] == (State.ESTABLISHED, FsmEvent.UPDATE_RECEIVED, State.ESTABLISHED)
    assert fsm.established


def test_can_fire():
    fsm = BGPStateMachine()
    assert fsm.can_fire(FsmEvent.MANUAL_START)
    assert fsm.can_fire(FsmEvent.MANUAL_STOP)  # reset events always legal
    assert not fsm.can_fire(FsmEvent.OPEN_RECEIVED)


def test_automatic_start_mirrors_manual_start():
    fsm = BGPStateMachine()
    fsm.fire(FsmEvent.AUTOMATIC_START)
    assert fsm.state == State.CONNECT
    fsm.fire(FsmEvent.TRANSPORT_CONNECTED)
    fsm.fire(FsmEvent.OPEN_RECEIVED)
    fsm.fire(FsmEvent.KEEPALIVE_RECEIVED)
    assert fsm.established


def test_automatic_start_illegal_once_started():
    fsm = BGPStateMachine()
    fsm.fire(FsmEvent.MANUAL_START)
    with pytest.raises(FsmError):
        fsm.fire(FsmEvent.AUTOMATIC_START)


@pytest.mark.parametrize(
    "setup, expected",
    [
        ([FsmEvent.MANUAL_START], State.ACTIVE),
        ([FsmEvent.MANUAL_START, FsmEvent.TRANSPORT_CONNECTED], State.ACTIVE),
        (
            [
                FsmEvent.MANUAL_START,
                FsmEvent.TRANSPORT_CONNECTED,
                FsmEvent.OPEN_RECEIVED,
            ],
            State.IDLE,
        ),
        (
            [
                FsmEvent.MANUAL_START,
                FsmEvent.TRANSPORT_CONNECTED,
                FsmEvent.OPEN_RECEIVED,
                FsmEvent.KEEPALIVE_RECEIVED,
            ],
            State.IDLE,
        ),
    ],
)
def test_transport_failed_from_every_connected_state(setup, expected):
    # Before the OPEN exchange completes we fall back to ACTIVE and keep
    # listening; once in session, losing the transport is a full reset.
    fsm = BGPStateMachine()
    for event in setup:
        fsm.fire(event)
    fsm.fire(FsmEvent.TRANSPORT_FAILED)
    assert fsm.state == expected


def test_transport_failed_illegal_in_idle():
    fsm = BGPStateMachine()
    with pytest.raises(FsmError):
        fsm.fire(FsmEvent.TRANSPORT_FAILED)


# The transition table as `fire` read it before it was flattened: keyed on
# the Enum members themselves, reset events tested first.
_REFERENCE_TRANSITIONS = {
    (State.IDLE, FsmEvent.MANUAL_START): State.CONNECT,
    (State.IDLE, FsmEvent.AUTOMATIC_START): State.CONNECT,
    (State.CONNECT, FsmEvent.TRANSPORT_CONNECTED): State.OPEN_SENT,
    (State.CONNECT, FsmEvent.TRANSPORT_FAILED): State.ACTIVE,
    (State.ACTIVE, FsmEvent.TRANSPORT_CONNECTED): State.OPEN_SENT,
    (State.ACTIVE, FsmEvent.TRANSPORT_FAILED): State.ACTIVE,
    (State.OPEN_SENT, FsmEvent.OPEN_RECEIVED): State.OPEN_CONFIRM,
    (State.OPEN_SENT, FsmEvent.TRANSPORT_FAILED): State.ACTIVE,
    (State.OPEN_CONFIRM, FsmEvent.TRANSPORT_FAILED): State.IDLE,
    (State.ESTABLISHED, FsmEvent.TRANSPORT_FAILED): State.IDLE,
    (State.OPEN_CONFIRM, FsmEvent.KEEPALIVE_RECEIVED): State.ESTABLISHED,
    (State.ESTABLISHED, FsmEvent.KEEPALIVE_RECEIVED): State.ESTABLISHED,
    (State.ESTABLISHED, FsmEvent.UPDATE_RECEIVED): State.ESTABLISHED,
}
_REFERENCE_RESETS = {
    FsmEvent.MANUAL_STOP,
    FsmEvent.NOTIFICATION_RECEIVED,
    FsmEvent.HOLD_TIMER_EXPIRED,
    FsmEvent.OPEN_INVALID,
}


def _reference_fire(state, event):
    if event in _REFERENCE_RESETS:
        return State.IDLE
    key = (state, event)
    if key not in _REFERENCE_TRANSITIONS:
        return f"event {event.name} illegal in state {state.name}"
    return _REFERENCE_TRANSITIONS[key]


@pytest.mark.parametrize("state", list(State))
def test_every_state_event_pair_matches_the_enum_keyed_table(state):
    for event in FsmEvent:
        fsm = BGPStateMachine()
        seen = []
        fsm.observers.append(lambda *transition: seen.append(transition))
        fsm.state = state
        expected = _reference_fire(state, event)
        assert fsm.can_fire(event) == isinstance(expected, State)
        if isinstance(expected, State):
            assert fsm.fire(event) is expected
            assert fsm.state is expected
            assert list(fsm.history) == seen == [(state, event, expected)]
        else:
            with pytest.raises(FsmError) as raised:
                fsm.fire(event)
            assert str(raised.value) == expected
            assert fsm.state is state
            assert not fsm.history and not seen


def test_illegal_event_leaves_state_unchanged():
    fsm = BGPStateMachine()
    fsm.fire(FsmEvent.MANUAL_START)
    fsm.fire(FsmEvent.TRANSPORT_CONNECTED)
    history_len = len(fsm.history)
    with pytest.raises(FsmError):
        fsm.fire(FsmEvent.KEEPALIVE_RECEIVED)  # KEEPALIVE before OPEN
    assert fsm.state == State.OPEN_SENT
    assert len(fsm.history) == history_len
