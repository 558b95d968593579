"""The package's records (``base._record``) against frozen-dataclass twins:
construction, equality, hash, repr and immutability agree."""

import dataclasses
from collections.abc import Hashable

import pytest
from oracles import dataclass_twin

from srgkit.base import _record
from srgkit.families import FamilyId, OrbitalClassification, hamming_classification
from srgkit.graphcore import IntersectionArray, RegularityFailure, SrgParams
from srgkit.orbitals import OrbitalPartition, PermGroupAction, compute_orbitals
from srgkit.schemes import (
    DualPolarSymbolic,
    G2Symbolic,
    GrassmannF2,
    IntersectionTensor,
    dual_polar_symbolic,
    g2_symbolic,
    grassmann_f2,
    tensor_from_array,
)

PENTAGON = PermGroupAction(5, ((1, 2, 3, 4, 0), (4, 3, 2, 1, 0)))

# each record, and a function making one instance of it with the package
SAMPLES = [
    (SrgParams, lambda: SrgParams(10, 3, 0, 1)),
    (IntersectionArray, lambda: IntersectionArray([3, 2], [1, 1])),
    (RegularityFailure, lambda: RegularityFailure("lambda differs", (0, 1), 0, 2)),
    (PermGroupAction, lambda: PENTAGON),
    (OrbitalPartition, lambda: compute_orbitals(PENTAGON)),
    (IntersectionTensor, lambda: tensor_from_array(IntersectionArray((3, 2), (1, 1)))),
    (G2Symbolic, g2_symbolic),
    (DualPolarSymbolic, lambda: dual_polar_symbolic(1)),
    (GrassmannF2, lambda: grassmann_f2(3, (6, 7))),
    (FamilyId, lambda: FamilyId.make("NU", n=3, q=3)),
    (OrbitalClassification, lambda: hamming_classification(2)),
]
IDS = [record.__name__ for record, _ in SAMPLES]


def init_fields(twin) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(twin) if f.init]


KINDS = (AttributeError, TypeError, ValueError)


def outcome(call, *args, **kwargs):
    """What ``call`` returns, or the kind (one of KINDS) and message of what
    it raises."""
    try:
        return call(*args, **kwargs)
    except KINDS as e:
        return next(kind for kind in KINDS if isinstance(e, kind)), str(e)


@pytest.mark.parametrize("record, make", SAMPLES, ids=IDS)
def test_a_record_equals_hashes_and_prints_as_its_twin(record, make):
    twin = dataclass_twin(record)
    sample = make()
    args = [getattr(sample, f.name) for f in init_fields(twin)]
    ours, theirs = record(*args), twin(*args)
    assert vars(ours) == vars(theirs)
    assert repr(ours) == repr(theirs)
    assert outcome(hash, ours) == outcome(hash, theirs)
    assert ours == record(*args) and ours == sample
    assert theirs == twin(*args)
    # equality holds within one class only
    assert ours.__eq__(theirs) is NotImplemented and ours != theirs
    assert ours.__eq__(args[0]) is NotImplemented
    names = [f.name for f in init_fields(twin)]
    for f in dataclasses.fields(twin):
        if not f.compare:  # OrbitalPartition.certificate
            other = record(*(None if n == f.name else a for n, a in zip(names, args)))
            assert other == ours and hash(other) == hash(ours)


def test_a_one_field_record_hashes_as_it_equals():
    """``attrgetter`` of one compared field gives the bare value, not a
    one-tuple: equal records still hash equal, and the hash is the
    value's."""

    @_record
    class Single:
        value: tuple

    @_record
    class Counted:
        value: tuple
        calls: int = 0
        _uncompared = ("calls",)

    for record in (Single, Counted):
        a, b = record((1, 2)), record((1, 2))
        assert a == b and hash(a) == hash(b) == hash((1, 2))
        assert record((2, 1)) != a
    assert hash(Counted((1, 2), 5)) == hash(Counted((1, 2)))


# the records whose fields hold dicts, and that declare ``__hash__ = None``
UNHASHABLE = (DualPolarSymbolic, GrassmannF2, OrbitalClassification)


@pytest.mark.parametrize("record, make", SAMPLES, ids=IDS)
def test_a_record_holding_a_dict_is_unhashable(record, make):
    sample = make()
    if record in UNHASHABLE:
        refused = (TypeError, f"unhashable type: {record.__name__!r}")
        assert outcome(hash, sample) == refused
        assert not isinstance(sample, Hashable)
    else:
        assert isinstance(sample, Hashable) and hash(sample) == hash(make())


@pytest.mark.parametrize("record, make", SAMPLES, ids=IDS)
def test_a_record_takes_keywords_and_defaults_as_its_twin(record, make):
    twin = dataclass_twin(record)
    fields = init_fields(twin)
    sample = make()
    by_name = {f.name: getattr(sample, f.name) for f in fields}
    assert record(**by_name) == record(*by_name.values())
    assert repr(record(**by_name)) == repr(twin(**by_name))
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    least = [by_name[name] for name in required]
    assert repr(record(*least)) == repr(twin(*least))


@pytest.mark.parametrize("record, make", SAMPLES, ids=IDS)
def test_a_record_refuses_bad_arguments_as_its_twin(record, make):
    twin = dataclass_twin(record)
    fields = init_fields(twin)
    sample = make()
    args = [getattr(sample, f.name) for f in fields]
    required = [f for f in fields if f.default is dataclasses.MISSING]
    calls = [
        ((), {}),  # every required argument missing
        (args[: len(required) - 1], {}),  # the last required one missing
        (args, {"bogus": 1}),
        ([*args, None], {}),  # one too many
        (args, {fields[0].name: args[0]}),  # the first one twice
        *((args, {f.name: None}) for f in dataclasses.fields(twin) if not f.init),
    ]
    for call_args, kwargs in calls:
        refused = outcome(record, *call_args, **kwargs)
        assert isinstance(refused, tuple) and refused[0] is TypeError
        assert refused == outcome(twin, *call_args, **kwargs)


@pytest.mark.parametrize("record, make", SAMPLES, ids=IDS)
def test_a_record_refuses_assignment_and_deletion_as_its_twin(record, make):
    twin = dataclass_twin(record)
    sample = make()
    args = [getattr(sample, f.name) for f in init_fields(twin)]
    ours, theirs = record(*args), twin(*args)
    for name in (init_fields(twin)[0].name, "unknown"):
        refused = outcome(setattr, ours, name, None)
        assert refused == (AttributeError, f"cannot assign to field {name!r}")
        assert outcome(setattr, theirs, name, None) == refused
        refused = outcome(delattr, ours, name)
        assert refused == (AttributeError, f"cannot delete field {name!r}")
        assert outcome(delattr, theirs, name) == refused
    assert vars(ours) == vars(theirs)


# arguments that each record's __post_init__ refuses
REFUSED = [
    (SrgParams, (10, -3, 0, 1)),
    (SrgParams, (10, 3, 1, 1)),
    (IntersectionArray, ((3, 2), (1,))),
    (IntersectionArray, ((3, 2), (2, 1))),
    (IntersectionArray, ((3, 0), (1, 1))),
    (IntersectionArray, ((3, 2), (1, 4))),
    (IntersectionArray, ((3, 1), (1, 2))),
    (PermGroupAction, (3, ((0, 0, 1),))),
    (PermGroupAction, (3, ((0, 1),))),
    (FamilyId, ("nosuch", ())),
    (FamilyId, ("NU", (("q", 3),))),
    (FamilyId, ("NU", (("n", 3), ("q", 3.0)))),
    (FamilyId, ("NU", (("n", 3), ("q", 6)))),
    (FamilyId, ("NU", (("n", 2), ("q", 3)))),
    (FamilyId, ("NO", (("eps", "*"), ("m", 2), ("q", 5)))),
    (FamilyId, ("NO", (("eps", "+"), ("m", 2), ("q", 4)))),
    (FamilyId, ("johnson", (("i", 3), ("n", 7)))),
    (IntersectionTensor, ((1, 3), (((1, 0), (0, 3)), ((0, 1), (1, 2))), 5)),
    (IntersectionTensor, ((1, 3), (((1, 0), (0, 3)),), 4)),
]


@pytest.mark.parametrize(
    "record, args", REFUSED, ids=[record.__name__ for record, _ in REFUSED]
)
def test_a_record_refuses_what_its_twin_refuses(record, args):
    refused = outcome(record, *args)
    assert isinstance(refused, tuple) and refused[0] is ValueError
    assert refused == outcome(dataclass_twin(record), *args)
