"""The contract of the package's frozen records (``order._Record``): what
each of them keeps from the dataclasses they replace."""

import dataclasses
import inspect
import pickle

import pytest

import mvcodes
from mvcodes import (
    AttachmentResult,
    AxiomReport,
    BckAlgebra,
    BlockCode,
    CayleyTable,
    ChainProduct,
    EmbeddingResult,
    MatrixReport,
    MvAlgebra,
    OrderIso,
    Poset,
    RejectionReason,
    Skeleton,
    Violation,
    WajsbergAlgebra,
    attach_wajsberg,
    chain_wajsberg,
    code_from_algebra,
    convert,
    embed_code,
)
from mvcodes.attach import MatrixCheck
from mvcodes.errors import DuplicateWord, MalformedTable, NotAnOrderIso, NotAPoset
from mvcodes.order import _LazyRows, _Record

W3 = chain_wajsberg(3)
MV3 = convert(W3, "mv")
BCK3 = convert(W3, "bck")
ATTACHED = attach_wajsberg(code_from_algebra(W3))
EMBEDDED = embed_code(BlockCode.from_strings(["10", "01"]))

# each record class with the fields of one valid record, in constructor order
RECORDS = {
    CayleyTable: {"rows": ((2, 2, 2), (1, 2, 2), (0, 1, 2))},
    BckAlgebra: {"table": BCK3.table, "zero": 0, "one": 2},
    MvAlgebra: {"oplus": MV3.oplus, "complement": (2, 1, 0), "zero": 0},
    WajsbergAlgebra: {"circ": W3.circ, "negation": (2, 1, 0), "one": 2},
    Violation: {"axiom": "w1", "witness": (2,)},
    AxiomReport: {"violations": (Violation("w1", (2,)), Violation("w3", (0, 2)))},
    MatrixCheck: {"condition": "diagonal-ones", "position": (1, 1)},
    MatrixReport: {"failures": (MatrixCheck("first-row-ones", (0, 0)),)},
    RejectionReason: {"kind": "no-catalog-match", "witness": (), "detail": "no product of chains"},
    AttachmentResult: {"algebra": ATTACHED.algebra, "iso": ATTACHED.iso, "source": ATTACHED.source},
    EmbeddingResult: {
        "q": EMBEDDED.q,
        "host": EMBEDDED.host,
        "factors": EMBEDDED.factors,
        "columns": EMBEDDED.columns,
        "restriction": EMBEDDED.restriction,
    },
    ChainProduct: {"factors": (3,), "algebra": W3},
    BlockCode: {"words": ((1, 1), (0, 1))},
    Skeleton: {"black": ((True, True), (False, True))},
    Poset: {"leq": ((True, True), (False, True))},
    OrderIso: {"forward": (1, 0)},
}

records = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_record_of_the_package_is_listed():
    found = {cls for cls in subclasses(_Record) if cls.__module__.startswith("mvcodes.")}
    assert found - {_LazyRows} == set(RECORDS)
    assert len(RECORDS) == 16


def test_the_package_defines_no_dataclass():
    for cls in RECORDS:
        assert not dataclasses.is_dataclass(cls)
    public = [value for value in vars(mvcodes).values() if isinstance(value, type)]
    assert not any(map(dataclasses.is_dataclass, public))


@records
def test_constructor_parameters_are_the_fields(cls):
    fields = tuple(RECORDS[cls])
    assert tuple(inspect.signature(cls).parameters) == fields
    assert cls._fields == cls.__match_args__ == fields


@records
def test_built_by_position_and_by_keyword(cls):
    kwargs = RECORDS[cls]
    by_keyword, by_position = cls(**kwargs), cls(*kwargs.values())
    assert by_keyword == by_position
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == getattr(by_position, name) == value


@records
def test_a_missing_unknown_or_repeated_argument_is_a_type_error(cls):
    kwargs = RECORDS[cls]
    values = list(kwargs.values())
    first = next(iter(kwargs))
    for call in (
        lambda: cls(*values[:-1]),
        lambda: cls(**dict(list(kwargs.items())[1:])),
        lambda: cls(**kwargs, other=1),
        lambda: cls(*values, None),
        lambda: cls(*values, **{first: values[0]}),
    ):
        with pytest.raises(TypeError):
            call()


@records
def test_assignment_and_deletion_raise_frozen_instance_error(cls):
    record = cls(**RECORDS[cls])
    before = repr(record)
    for name in (*RECORDS[cls], "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert repr(record) == before


@records
def test_equality_and_hash_agree_and_classes_never_meet(cls):
    kwargs = RECORDS[cls]
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != tuple(kwargs.values())
    for other, other_kwargs in RECORDS.items():
        if other is not cls:
            assert a != other(**other_kwargs)


def test_records_that_differ_in_one_field_are_unequal():
    assert Violation("w1", (2,)) != Violation("w1", (1,)) != Violation("w2", (1,))
    assert WajsbergAlgebra(W3.circ, (2, 1, 0), 2) != WajsbergAlgebra(W3.circ, (2, 1, 0), 1)
    assert OrderIso((0, 1)) != OrderIso((1, 0))


@records
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, protocol):
    record = cls(**RECORDS[cls])
    copy = pickle.loads(pickle.dumps(record, protocol))
    assert type(copy) is cls
    assert copy == record and hash(copy) == hash(record) and repr(copy) == repr(record)


@records
def test_repr_names_each_field(cls):
    record = cls(**RECORDS[cls])
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in RECORDS[cls])
    assert repr(record) == f"{cls.__name__}({fields})"


@records
def test_repr_and_hash_are_those_of_the_dataclass(cls):
    kwargs = RECORDS[cls]
    oracle = dataclasses.make_dataclass(cls.__name__, list(kwargs), frozen=True)(**kwargs)
    record = cls(**kwargs)
    assert repr(record) == repr(oracle)
    if not isinstance(record, _LazyRows):
        assert hash(record) == hash(oracle)


def test_literal_reprs():
    assert repr(Violation("w1", (2,))) == "Violation(axiom='w1', witness=(2,))"
    assert repr(OrderIso([1, 0])) == "OrderIso(forward=(1, 0))"
    assert repr(BlockCode.from_strings(["10"])) == "BlockCode(words=((1, 0),))"


def test_poset_masks_are_no_fields():
    p = Poset(((True, True), (False, True)))
    assert (p.up, p.down) == ((0b11, 0b10), (0b01, 0b11))
    assert Poset.__match_args__ == ("leq",)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.up = ()


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: WajsbergAlgebra(W3.circ, (2, 1, 0), 3), MalformedTable),
        (lambda: WajsbergAlgebra(W3.circ, (2, 1), 2), MalformedTable),
        (lambda: MvAlgebra(MV3.oplus, (2, 1, 0), -1), MalformedTable),
        (lambda: MvAlgebra(MV3.oplus, (2, 1, 3), 0), MalformedTable),
        (lambda: BckAlgebra(BCK3.table, 0, 3), MalformedTable),
        (lambda: CayleyTable(((0, 1), (1,))), MalformedTable),
        (lambda: BlockCode(((0, 1), (0, 1))), DuplicateWord),
        (lambda: Skeleton(((True, False),)), MalformedTable),
        (lambda: Poset(((True, True), (True, True))), NotAPoset),
        (lambda: OrderIso((0, 0)), NotAnOrderIso),
    ],
)
def test_validation_still_raises(build, error):
    with pytest.raises(error):
        build()


def test_constants_and_maps_are_normalised():
    w = WajsbergAlgebra(W3.circ, [2, 1, 0], "2")
    assert (w.negation, w.one) == ((2, 1, 0), 2)
    assert OrderIso([1, 0]).forward == (1, 0)
