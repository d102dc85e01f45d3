"""The record types keep one contract: construction by position and by
keyword with their defaults, field equality, a hash and no assignment for
the immutable ones, and the ``Name(field=value, ...)`` repr."""

import copy
import pickle
import tracemalloc

import pytest

from fairbalance import (
    EsMatrix,
    FairnessReport,
    GroupSet,
    IdentityRecord,
    IdsTable,
    ImageRecord,
    PairRecord,
    Protocol,
    RemovalEvent,
    RemovalTrace,
    RunPoint,
    ScatterResult,
    SynthConfig,
)

GROUPS = GroupSet(("a", "b"))

# each type with its fields in order, values already in normal form; the
# last flag says whether the fields hold only hashable values
RECORDS = [
    (GroupSet, {"labels": ("a", "b")}, True),
    (ImageRecord, {"image_id": "i1", "identity_id": "x", "group": 0,
                   "scores": (0.25, 0.75)}, True),
    (IdentityRecord, {"identity_id": "x", "group": 1, "image_ids": ("i1", "i2")}, True),
    (PairRecord, {"group": "a", "correct": None, "similarity": 0.5,
                  "is_genuine": True}, True),
    (FairnessReport, {"per_group": {"a": 0.9, "b": 0.8}, "average": 0.85,
                      "std": 7.0, "ser": 2.0, "flags": ()}, False),
    (RunPoint, {"run_id": "r1", "strategy": "A", "size": "14k", "error": 0.1,
                "bias": 0.5}, True),
    (IdsTable, {"protocol": Protocol.A, "entries": {"x": (0.5, 0.5)}}, False),
    (EsMatrix, {"protocol": Protocol.C, "groups": ("a", "b"),
                "values": ((1.0, 0.0), (0.5, 0.5))}, True),
    (ScatterResult, {"rows": (("i1", "a", 0.5, 0.2),), "correlations": {"a": None},
                     "skipped": 1}, False),
    (SynthConfig, {"seed": 1, "groups": GROUPS, "identities_per_group": (2, 3),
                   "images_per_identity": (1, 2), "concentration": (1.0, 2.0),
                   "label_noise": 0.0}, True),
    (RemovalEvent, {"step": 1, "identity_id": "x", "group": "a",
                    "own_group_ids": 0.5, "diag_before": (0.5, 0.6),
                    "diag_after": (0.7, 0.6)}, True),
    (RemovalTrace, {"name": "A", "group_labels": ("a", "b"),
                    "initial_diag": (0.5, 0.6), "seed": None, "events": [],
                    "final_manifest": None}, False),
]
# only the trace is filled in after construction
MUTABLE = {RemovalTrace}


@pytest.mark.parametrize(
    "cls, fields, hashable", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS]
)
def test_record_contract(cls, fields, hashable):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value, name
        assert getattr(by_keyword, name) == value, name
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert repr(by_keyword) == "{}({})".format(
        cls.__name__, ", ".join(f"{name}={value!r}" for name, value in fields.items())
    )
    first = next(iter(fields))
    if cls in MUTABLE:
        setattr(by_keyword, first, "changed")
        assert by_position != by_keyword
        return
    with pytest.raises(AttributeError):
        setattr(by_keyword, first, "changed")
    assert getattr(by_keyword, first) == fields[first]
    if hashable:
        assert hash(by_position) == hash(by_keyword)
        assert len({by_position, by_keyword}) == 1
    else:
        with pytest.raises(TypeError):
            hash(by_position)


def test_defaults():
    assert PairRecord("a") == PairRecord("a", None, None, None)
    config = SynthConfig(1, GROUPS, 2, (1, 1), 1.0)
    assert config.label_noise == 0.0
    assert config.identities_per_group == (2, 2)
    first = RemovalTrace("A", ("a", "b"), (0.5, 0.5))
    second = RemovalTrace("A", ("a", "b"), (0.5, 0.5))
    assert (first.seed, first.events, first.final_manifest) == (None, [], None)
    first.events.append("step")
    assert second.events == []


def test_removal_event_keeps_an_instance_dict():
    # a caller rebuilds an event from its fields
    event = RemovalEvent(1, "x", "a", 0.5, (0.5, 0.6), (0.7, 0.6))
    copy = type(event)(**{**event.__dict__, "own_group_ids": 0.25})
    assert copy.own_group_ids == 0.25
    assert copy != event
    assert copy == RemovalEvent(1, "x", "a", 0.25, (0.5, 0.6), (0.7, 0.6))
    with pytest.raises(AttributeError):
        del event.step


def test_removal_events_keep_the_compact_attribute_layout():
    # a trace holds one event per removal; an event must cost no more than
    # an instance of a plain class that sets its six attributes in __init__
    class Plain:
        def __init__(self, a, b, c, d, e, f):
            self.a, self.b, self.c, self.d, self.e, self.f = a, b, c, d, e, f

    def retained(make):
        tracemalloc.start()
        try:
            items = [make(i, "x", "a", 0.5, (), ()) for i in range(20_000)]
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(items) == 20_000
        return size

    assert retained(RemovalEvent) <= retained(Plain) * 1.05


def test_removal_events_cost_about_a_tuple():
    # a trace holds one event per removal; an event must cost about what a
    # plain six-tuple does. An instance of a tuple subclass gets one spare
    # item slot from the allocator, 8 bytes over the tuple's 88, hence 1.1.
    def retained(make):
        tracemalloc.start()
        try:
            items = [make(i, "x", "a", 0.5, (), ()) for i in range(20_000)]
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(items) == 20_000
        return size

    assert issubclass(RemovalEvent, tuple)
    assert list(vars(RemovalEvent(1, "x", "a", 0.5, (), ()))) == [
        "step", "identity_id", "group", "own_group_ids", "diag_before", "diag_after"
    ]
    assert retained(RemovalEvent) <= retained(lambda *fields: fields) * 1.1


def test_a_trace_pickles_and_copies_with_its_fields():
    trace = RemovalTrace("A", ("a", "b"), (0.5, 0.5), seed=3)
    trace.events.append(RemovalEvent(1, "x", "a", 0.5, (0.5, 0.5), (0.7, 0.5)))
    for clone in (pickle.loads(pickle.dumps(trace)), copy.deepcopy(trace)):
        assert type(clone) is RemovalTrace
        assert clone == trace
        assert clone.events is not trace.events
        assert clone.removed_ids() == ["x"]


def test_records_of_different_types_differ():
    trace = RemovalTrace("A", ("a", "b"), (0.5, 0.5))
    assert trace != RemovalEvent(1, "x", "a", 0.5, (0.5,), (0.5,))
    with pytest.raises(TypeError):
        hash(trace)
