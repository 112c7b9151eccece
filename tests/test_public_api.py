"""The public surface of the package, pinned so that it grows only on purpose,
and the semantics of its records."""

import copy
import importlib
import pickle
import re

import pytest

import eqhilb

PUBLIC = [
    "Abacus", "AmbiguousQuotientError", "Arrow", "Box", "EnumerationLimitError",
    "EqhilbError", "GroupParams", "InsufficientSamplesError",
    "InvariantViolationError", "LPolynomial", "MultiPartition", "NotNCoreError",
    "Partition", "PreconditionError", "Quasipolynomial", "UnbalancedPartitionError",
    "betti_statistic", "check_rectangle_bijection", "color", "diagram",
    "distinguished_arrows", "enumerate_balanced", "fit_quasipolynomial",
    "from_core_quotient", "has_empty_core", "hj_expand",
    "invariant_arrows", "is_balanced", "l_class", "multipartition_count",
    "normalize_group", "partitions_of", "psi", "psi_inverse", "rectangle_map",
    "runners", "satisfies_star", "to_abacus", "verify_period",
    "verify_quasipolynomial",
]


def test_all_is_the_pinned_list_and_resolves():
    assert len(PUBLIC) == 40
    assert sorted(eqhilb.__all__) == PUBLIC
    for name in eqhilb.__all__:
        getattr(eqhilb, name)


def test_star_import_binds_exactly_all_and_dir_lists_it():
    namespace = {}
    exec("from eqhilb import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert set(eqhilb.__all__) <= set(dir(eqhilb))


def test_each_name_is_its_defining_modules_object():
    """The lazy exports hand out the objects of the modules that define them."""
    for name in PUBLIC:
        home = importlib.import_module(f"eqhilb.{eqhilb._EXPORTS[name]}")
        value = getattr(eqhilb, name)
        assert value is getattr(home, name) and value.__module__ == home.__name__, name


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'eqhilb' has no attribute 'no_such_name'$"):
        eqhilb.no_such_name


#: one value of each public record, its repr, and what each validating
#: record refuses, with the message it gives
RECORDS = [
    (eqhilb.GroupParams(1, -1, 3), "GroupParams(a=1, b=-1, n=3)"),
    (eqhilb.Abacus((0, 1), -1), "Abacus(word=(0, 1), offset=-1)"),
    (eqhilb.MultiPartition((eqhilb.Partition(),)),
     "MultiPartition(parts=(Partition(()),), alignment=None)"),
    (eqhilb.distinguished_arrows(eqhilb.Partition((1,)))[0],
     "Arrow(kind='D', box=Box(i=0, j=0), tail=Box(i=1, j=0), head=Box(i=0, j=0), weight=(1, 0))"),
    (eqhilb.Quasipolynomial(1, ((),), 1, (True,)),
     "Quasipolynomial(period=1, polys=((),), valid_from=1, class_validated=(True,))"),
]
REFUSALS = [
    (eqhilb.GroupParams, (2, 4, 3), r"^weights must be coprime, got \(2, 4\)$"),
    (eqhilb.GroupParams, (0, 0, 0), r"^weights must be coprime, got \(0, 0\)$"),
    (eqhilb.GroupParams, (1, 1, 0), "^group order must be >= 1, got 0$"),
    (eqhilb.Abacus, ((0, 2, 1), 0), "^abacus words contain only 0s and 1s$"),
    (eqhilb.Abacus, ((True, 1.0),), "^abacus words contain only 0s and 1s$"),
    (eqhilb.Abacus, ((0, 1.0),), "^abacus words contain only 0s and 1s$"),
    (eqhilb.MultiPartition, ((),), "^a multipartition has at least one component$"),
    (eqhilb.Quasipolynomial, (0, (), 1, ()), "^period must be >= 1, got 0$"),
    (eqhilb.Quasipolynomial, (0, ((),), 1, ()), "^period must be >= 1, got 0$"),
    (eqhilb.Quasipolynomial, (2, ((),), 1, (True, None)),
     r"^needs one polynomial and one flag per residue mod 2, got 1 and 2$"),
    (eqhilb.Abacus, ((0, 1), 1.5), r"^an abacus offset is an int, got 1\.5$"),
    (eqhilb.Abacus, ((0, 1), True), "^an abacus offset is an int, got True$"),
    (eqhilb.Abacus, ((0, 1), None), "^an abacus offset is an int, got None$"),
    (eqhilb.MultiPartition, ((eqhilb.Partition(),), 1.5),
     r"^an alignment is None or an int, got 1\.5$"),
    (eqhilb.MultiPartition, ((eqhilb.Partition(),), "x"),
     "^an alignment is None or an int, got 'x'$"),
    (eqhilb.MultiPartition, ((eqhilb.Partition(),), True),
     "^an alignment is None or an int, got True$"),
    (eqhilb.Quasipolynomial, (1.0, ((),), 1, (True,)), r"^period must be an int, got 1\.0$"),
    (eqhilb.Quasipolynomial, (1, ((),), 1.0, (True,)), r"^valid_from must be an int, got 1\.0$"),
    (eqhilb.Quasipolynomial, (1, ((1,),), 1, (1.5,)),
     r"^each flag must be True, False or None, got 1\.5$"),
    (eqhilb.Quasipolynomial, (1, ((1,),), 1, (1,)), "^each flag must be True, False or None, got 1$"),
    (eqhilb.MultiPartition, (((1,),), 0), r"^a component must be a Partition, got \(1,\)$"),
]


@pytest.mark.parametrize("value, text", RECORDS, ids=lambda v: type(v).__name__)
def test_records_are_immutable_tuples_of_their_fields(value, text):
    assert repr(value) == text
    fields = tuple(value)
    assert value == fields and hash(value) == hash(fields)
    assert value._replace() == value and type(value._replace()) is type(value)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], fields[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value) and repr(twin) == text


@pytest.mark.parametrize("record, args, message", REFUSALS,
                         ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_records_refuse_bad_fields_on_every_path(record, args, message):
    with pytest.raises(eqhilb.PreconditionError, match=message):
        record(*args)
    good = next(value for value, _ in RECORDS if type(value) is record)
    with pytest.raises(eqhilb.PreconditionError, match=message):
        good._replace(**dict(zip(record._fields, args)))


@pytest.mark.parametrize("text", [None, 21, (2,), b"2"], ids=repr)
def test_partition_parse_refuses_text_that_is_not_a_str(text):
    """Text that is not a ``str`` is refused by the argument's name, not left
    to end in an AttributeError."""
    with pytest.raises(eqhilb.PreconditionError, match=rf"^text must be a str, got {re.escape(repr(text))}$"):
        eqhilb.Partition.parse(text)


def test_quasipolynomial_evaluates_only_int_orders():
    qp = eqhilb.Quasipolynomial(1, ((1, 1),), 1, (True,))
    assert qp.evaluate(2) == 3
    for n in (2.5, 2.0, True):
        with pytest.raises(eqhilb.PreconditionError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
            qp.evaluate(n)


def test_records_store_tuples():
    lam = eqhilb.Partition((2, 1))
    for value in (eqhilb.Abacus([0, 1], 3), eqhilb.MultiPartition([lam, lam], alignment=1)):
        assert type(value[0]) is tuple
        assert {value: 1}[type(value)(tuple(value[0]), value[1])] == 1
    assert eqhilb.Abacus(iter([1, 0])).word == (1, 0)
    qp = eqhilb.Quasipolynomial(2, [[1, 2], None], 1, [True, None])
    assert qp.polys == ((1, 2), None) and type(qp.polys[0]) is tuple
    assert type(qp.class_validated) is tuple
    assert {qp: 1}[eqhilb.Quasipolynomial(2, ((1, 2), None), 1, (True, None))] == 1
    assert qp._replace(polys=[None, [3]]).polys == (None, (3,))


_G = eqhilb.GroupParams(1, 1, 2)
_MIXED = eqhilb.GroupParams(1, -1, 2)

#: each public function that takes a partition, with the tuple ``(2,)`` in
#: its place, and the name of that argument
TUPLE_FOR_PARTITION = [
    pytest.param(lambda lam: eqhilb.is_balanced(_G, lam), "lam", id="is_balanced"),
    pytest.param(lambda lam: eqhilb.betti_statistic(_G, lam), "lam", id="betti_statistic"),
    pytest.param(lambda lam: eqhilb.psi(_G, 1, lam), "lam", id="psi"),
    pytest.param(lambda mu: eqhilb.psi_inverse(_G, 1, mu), "mu", id="psi_inverse"),
    pytest.param(eqhilb.to_abacus, "lam", id="to_abacus"),
    pytest.param(eqhilb.distinguished_arrows, "lam", id="distinguished_arrows"),
    pytest.param(lambda lam: eqhilb.invariant_arrows(_G, lam), "lam", id="invariant_arrows"),
    pytest.param(eqhilb.diagram, "lam", id="diagram"),
    pytest.param(lambda lam: eqhilb.rectangle_map(_MIXED, lam), "lam", id="rectangle_map"),
    pytest.param(lambda mu: eqhilb.satisfies_star(mu, 1, -1), "mu", id="satisfies_star"),
]


@pytest.mark.parametrize("call, name", TUPLE_FOR_PARTITION)
def test_functions_refuse_a_tuple_for_a_partition(call, name):
    """A tuple where a partition belongs is refused by the argument's name,
    not left to end in an AttributeError."""
    with pytest.raises(eqhilb.PreconditionError, match=rf"^{name} must be a Partition, got \(2,\)$"):
        call((2,))


_NOT_A_GROUP = (1, 2, 3)
_LAM = eqhilb.Partition((2,))

#: each public function that takes a ``GroupParams``, with the tuple
#: ``(1, 2, 3)`` in its place
TUPLE_FOR_GROUP = [
    pytest.param(lambda g: eqhilb.enumerate_balanced(g, 1), id="enumerate_balanced"),
    pytest.param(lambda g: eqhilb.l_class(g, 1), id="l_class"),
    pytest.param(lambda g: eqhilb.is_balanced(g, _LAM), id="is_balanced"),
    pytest.param(lambda g: eqhilb.color(g, eqhilb.Box(0, 0)), id="color"),
    pytest.param(lambda g: eqhilb.psi(g, 1, _LAM), id="psi"),
    pytest.param(lambda g: eqhilb.psi_inverse(g, 1, _LAM), id="psi_inverse"),
    pytest.param(lambda g: eqhilb.verify_period(g, 1, 1, 3), id="verify_period"),
    pytest.param(eqhilb.normalize_group, id="normalize_group"),
    pytest.param(lambda g: eqhilb.betti_statistic(g, _LAM), id="betti_statistic"),
    pytest.param(lambda g: eqhilb.invariant_arrows(g, _LAM), id="invariant_arrows"),
    pytest.param(lambda g: eqhilb.verify_quasipolynomial(g, 1, 1, 3), id="verify_quasipolynomial"),
    pytest.param(lambda g: eqhilb.rectangle_map(g, _LAM), id="rectangle_map"),
    pytest.param(lambda g: eqhilb.check_rectangle_bijection(g, 1), id="check_rectangle_bijection"),
]


@pytest.mark.parametrize("call", TUPLE_FOR_GROUP)
def test_functions_refuse_a_tuple_for_a_group(call):
    """A tuple where a ``GroupParams`` belongs is refused, not left to end in
    an AttributeError."""
    with pytest.raises(eqhilb.PreconditionError, match=r"^g must be a GroupParams, got \(1, 2, 3\)$"):
        call(_NOT_A_GROUP)
