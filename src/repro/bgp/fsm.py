"""The BGP finite state machine (RFC 4271 §8).

The FSM is factored out of the session so its transition table can be
tested exhaustively.  It models the six states and the events relevant to
a message-channel transport (there is no TCP SYN handling; "transport
connected" collapses Connect/Active into a single notion driven by the
channel layer).
"""

from __future__ import annotations

from collections import deque
from enum import Enum, auto
from typing import Callable, Deque, Dict, List, Optional, Tuple

__all__ = ["State", "FsmEvent", "FsmError", "BGPStateMachine"]


class State(Enum):
    IDLE = auto()
    CONNECT = auto()
    ACTIVE = auto()
    OPEN_SENT = auto()
    OPEN_CONFIRM = auto()
    ESTABLISHED = auto()


class FsmEvent(Enum):
    MANUAL_START = auto()
    MANUAL_STOP = auto()
    AUTOMATIC_START = auto()  # IdleHold timer expired: retry without an operator
    TRANSPORT_CONNECTED = auto()
    TRANSPORT_FAILED = auto()
    OPEN_RECEIVED = auto()
    KEEPALIVE_RECEIVED = auto()
    UPDATE_RECEIVED = auto()
    NOTIFICATION_RECEIVED = auto()
    HOLD_TIMER_EXPIRED = auto()
    OPEN_INVALID = auto()


class FsmError(Exception):
    """An event arrived that is illegal in the current state."""


# (state, event) -> new state.  Events absent for a state are FSM errors,
# except the universally-resetting ones handled in `fire`.
_TRANSITIONS: Dict[Tuple[State, FsmEvent], State] = {
    (State.IDLE, FsmEvent.MANUAL_START): State.CONNECT,
    (State.IDLE, FsmEvent.AUTOMATIC_START): State.CONNECT,
    (State.CONNECT, FsmEvent.TRANSPORT_CONNECTED): State.OPEN_SENT,
    (State.CONNECT, FsmEvent.TRANSPORT_FAILED): State.ACTIVE,
    (State.ACTIVE, FsmEvent.TRANSPORT_CONNECTED): State.OPEN_SENT,
    (State.ACTIVE, FsmEvent.TRANSPORT_FAILED): State.ACTIVE,
    (State.OPEN_SENT, FsmEvent.OPEN_RECEIVED): State.OPEN_CONFIRM,
    # RFC 4271 §8.2.2: losing the transport in OpenSent retries via
    # Active; in OpenConfirm/Established the session restarts from Idle.
    (State.OPEN_SENT, FsmEvent.TRANSPORT_FAILED): State.ACTIVE,
    (State.OPEN_CONFIRM, FsmEvent.TRANSPORT_FAILED): State.IDLE,
    (State.ESTABLISHED, FsmEvent.TRANSPORT_FAILED): State.IDLE,
    (State.OPEN_CONFIRM, FsmEvent.KEEPALIVE_RECEIVED): State.ESTABLISHED,
    (State.ESTABLISHED, FsmEvent.KEEPALIVE_RECEIVED): State.ESTABLISHED,
    (State.ESTABLISHED, FsmEvent.UPDATE_RECEIVED): State.ESTABLISHED,
}

# Events that send any state back to IDLE.
_RESET_EVENTS = {
    FsmEvent.MANUAL_STOP,
    FsmEvent.NOTIFICATION_RECEIVED,
    FsmEvent.HOLD_TIMER_EXPIRED,
    FsmEvent.OPEN_INVALID,
}

# The two tables above, flattened for `fire`: the new state for
# (state, event) sits at ``state._value_ * _STRIDE + event._value_``, None
# where the event is illegal.  Keyed on the members' int values because
# `Enum.__hash__` is Python code, and `fire` runs on every keepalive.
_STRIDE = max(e.value for e in FsmEvent) + 1
_NEXT: List[Optional[State]] = [None] * ((max(s.value for s in State) + 1) * _STRIDE)
for (_state, _event), _new in _TRANSITIONS.items():
    _NEXT[_state.value * _STRIDE + _event.value] = _new
for _state in State:
    for _event in _RESET_EVENTS:
        _NEXT[_state.value * _STRIDE + _event.value] = State.IDLE
del _state, _event, _new


# `history` is a debugging aid appended to on every keepalive received;
# an established session would otherwise grow it for as long as it lives.
_HISTORY_KEEP = 256


class BGPStateMachine:
    """Tracks session state; optional observers see every transition.

    ``history`` holds the most recent transitions, oldest first.
    """

    def __init__(self) -> None:
        self.state = State.IDLE
        self.history: Deque[Tuple[State, FsmEvent, State]] = deque(maxlen=_HISTORY_KEEP)
        self.observers: List[Callable[[State, FsmEvent, State], None]] = []

    def fire(self, event: FsmEvent) -> State:
        """Apply ``event``; returns the new state or raises FsmError."""
        old = self.state
        new = _NEXT[old._value_ * _STRIDE + event._value_]
        if new is None:
            raise FsmError(f"event {event.name} illegal in state {old.name}")
        self.state = new
        self.history.append((old, event, new))
        for observer in self.observers:
            observer(old, event, new)
        return new

    @property
    def established(self) -> bool:
        return self.state == State.ESTABLISHED

    def can_fire(self, event: FsmEvent) -> bool:
        return _NEXT[self.state._value_ * _STRIDE + event._value_] is not None
