"""Property: any telemetry event stream round-trips through RTVT exactly.

Strategies are derived from the same ``NamedTuple`` annotations the
codec table in :mod:`repro.telemetry.record` is built from, so every
event kind — and every field codec, including signed timestamp deltas,
interned strings, nested tuples with floats, and the tagged-scalar
``HypercallEvent.flag`` — is exercised with adversarial values.

:class:`ReferenceEncoder` is the straightforward per-field encoder (one
helper call per field into a per-event frame); the writer's one-pass
encoder must produce the same body bytes, hence the same trace hash.
"""

import hashlib
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import TraceReader, merge_traces
from repro.telemetry import events as T
from repro.telemetry.record import (
    _C_BOOL,
    _C_INT,
    _C_OPT_STR,
    _C_STR,
    _C_VALUE,
    _SCHEMAS,
    EVENT_CLASSES,
    KIND_IDS,
    TraceWriter,
)

# Text drawn from a small alphabet so interning gets collisions, plus a
# few adversarial shapes (empty, unicode, long).
names = st.one_of(
    st.sampled_from(["", "vm0", "vm0.v0", "t", "§µ∆", "x" * 200]),
    st.text(max_size=8),
)

# Small values take the one-byte varint paths (either sign); the wide
# ranges reach multi-byte varints, including magnitudes of 2**63 and up.
# Event times draw from the same mix, so consecutive events give time
# deltas of both signs, one-byte and multi-byte.
ints = st.one_of(
    st.integers(min_value=-64, max_value=64),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.integers(min_value=2**63, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63)),
)

# Tuple payload items mirror what _encode_item accepts; floats must
# round-trip bit-exactly (encoded as IEEE doubles, never repr'd).
detail_items = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        ints,
        names,
        st.floats(allow_nan=False),
    ),
    lambda children: st.tuples(children, children),
    max_leaves=6,
)

_FIELD_STRATEGIES = {
    "int": ints,
    "str": names,
    "Optional[str]": st.one_of(st.none(), names),
    "bool": st.booleans(),
    "Tuple": st.tuples(detail_items, detail_items),
}

#: The tagged-scalar field: runtime type varies between int and str.
_OVERRIDES = {("HypercallEvent", "flag"): st.one_of(ints, names)}


def _event_strategy(kind):
    cls = EVENT_CLASSES[kind]
    fields = []
    for name, annotation in cls.__annotations__.items():
        if not isinstance(annotation, str):
            annotation = getattr(annotation, "__forward_arg__", repr(annotation))
        strategy = _OVERRIDES.get((cls.__name__, name))
        if strategy is None:
            strategy = _FIELD_STRATEGIES[annotation]
        fields.append(strategy)
    return st.tuples(*fields).map(lambda values, c=cls: c(*values))


any_event = st.one_of(
    [
        st.tuples(st.just(kind), _event_strategy(kind))
        for kind in T.ALL_KINDS
    ]
)


def _warmup(n):
    """*n* events that intern *n* distinct strings, so the strings of the
    events after them get ids of 128 and up (multi-byte varints)."""
    return [
        (T.JOB_COMPLETE, T.JobCompleteEvent(i, f"warmup{i}", i)) for i in range(n)
    ]


event_streams = st.one_of(
    st.lists(any_event, max_size=60),
    st.builds(
        lambda n, events: _warmup(n) + events,
        st.integers(min_value=128, max_value=200),
        st.lists(any_event, min_size=1, max_size=30),
    ),
)


def record(events, header=None):
    writer = TraceWriter(header=header)
    for kind, event in events:
        writer.write_event(kind, event)
    return writer.close()


def _uvarint(out, value):
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _svarint(out, value):
    _uvarint(out, (value << 1) if value >= 0 else ((-value) << 1) - 1)


class ReferenceEncoder:
    """Test-only RTVT body encoder: each field goes through its own
    codec helper into a fresh per-event frame, and intern frames are
    appended to the body before the frame that first uses them."""

    def __init__(self):
        self.body = bytearray()
        self.strings = {}
        self.prev_time = 0

    def intern(self, text):
        idx = self.strings.get(text)
        if idx is None:
            idx = len(self.strings)
            self.strings[text] = idx
            payload = text.encode("utf-8")
            self.body.append(0x01)
            _uvarint(self.body, len(payload))
            self.body += payload
        return idx

    def item(self, out, item):
        if item is None:
            out.append(0)
        elif item is True or item is False:
            out.append(3)
            out.append(1 if item else 0)
        elif isinstance(item, int):
            out.append(1)
            _svarint(out, item)
        elif isinstance(item, str):
            out.append(2)
            _uvarint(out, self.intern(item))
        elif isinstance(item, float):
            out.append(4)
            out += struct.pack("<d", item)
        else:
            out.append(5)
            self.tuple(out, item)

    def tuple(self, out, items):
        _uvarint(out, len(items))
        for item in items:
            self.item(out, item)

    def event(self, kind, event):
        kind_id = KIND_IDS[kind]
        frame = bytearray([0x02])
        _uvarint(frame, kind_id)
        _svarint(frame, event[0] - self.prev_time)
        self.prev_time = event[0]
        for codec, value in zip(_SCHEMAS[kind_id][1], event[1:]):
            if codec == _C_INT:
                _svarint(frame, value)
            elif codec == _C_STR:
                _uvarint(frame, self.intern(value))
            elif codec == _C_OPT_STR:
                if value is None:
                    frame.append(0)
                else:
                    frame.append(1)
                    _uvarint(frame, self.intern(value))
            elif codec == _C_BOOL:
                frame.append(1 if value else 0)
            elif codec == _C_VALUE:
                self.item(frame, value)
            else:
                self.tuple(frame, tuple(value))
        self.body += frame


@settings(max_examples=120, deadline=None)
@given(event_streams)
def test_writer_matches_reference_encoder(events):
    reference = ReferenceEncoder()
    for kind, event in events:
        reference.event(kind, event)
    reader = TraceReader(record(events))
    assert reader.body_bytes() == bytes(reference.body)
    assert reader.trace_hash == hashlib.sha256(reference.body).hexdigest()


@settings(max_examples=120, deadline=None)
@given(event_streams)
def test_any_stream_round_trips(events):
    reader = TraceReader(record(events))
    assert list(reader.events()) == events
    assert reader.event_count == len(events)


@settings(max_examples=60, deadline=None)
@given(event_streams)
def test_recording_is_deterministic(events):
    assert record(events) == record(events)


@settings(max_examples=60, deadline=None)
@given(event_streams)
def test_counts_agree_with_stream(events):
    reader = TraceReader(record(events))
    for kind in T.ALL_KINDS:
        want = sum(1 for k, _ in events if k == kind)
        assert reader.counts.get(kind, 0) == want


@settings(max_examples=60, deadline=None)
@given(event_streams, st.integers(min_value=-(2**62), max_value=2**62))
def test_start_time_filter_is_a_pure_filter(events, start):
    reader = TraceReader(record(events))
    want = [(k, e) for k, e in events if e.time >= start]
    assert list(reader.events(start_time=start)) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(event_streams, min_size=1, max_size=4))
def test_merge_preserves_every_part(parts):
    labeled = [(f"part{i}", record(events)) for i, events in enumerate(parts)]
    reader = TraceReader(merge_traces(labeled))
    want = [pair for events in parts for pair in events]
    assert list(reader.events()) == want
    assert [s["label"] for s in reader.sections] == [lbl for lbl, _ in labeled]
