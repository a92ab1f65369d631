"""The contract of the package's immutable records: each keeps its
constructor and defaults, its validation, its repr, equality only with its
own class, a hash that follows equality, and refuses assignment."""
import dataclasses
import sys
from fractions import Fraction

import pytest

from intpoly import DomainError, Polynomial
from intpoly import arith, example_lab, matrices, poly, sequences, spectrum, vorder

X = Polynomial.x()
WINDOW = ((2, (1, 3, 7, 15)), {})


def _certificate_args():
    cert = example_lab.verify_known_solution()
    names = ("beta", "gamma", "f", "g", "u", "alpha", "delta", "sign", "checks")
    return tuple(getattr(cert, name) for name in names), {}


# record name -> (class, constructor arguments, a field to assign)
CASES = {
    "PAdicResidue": (arith.PAdicResidue, lambda: ((3, 4, 2), {}), "value"),
    "BinomialForm": (poly.BinomialForm, lambda: (((Fraction(1), Fraction(-1, 2)),), {}), "coeffs"),
    "SubsetDescriptor": (
        vorder.SubsetDescriptor, lambda: (((Fraction(0), Fraction(1, 3)),), {}), "points"
    ),
    "VOrdering": (
        vorder.VOrdering,
        lambda: ((vorder.ALL_INTEGERS, 2, (Fraction(0), Fraction(1)), (0, 0)), {}),
        "w",
    ),
    "TriVerdict": (spectrum.TriVerdict, lambda: (("unknown",), {"reason": "window_ambiguous"}), "reason"),
    "PrimeAboveZero": (spectrum.PrimeAboveZero, lambda: ((X - 3,), {}), "q"),
    "MaxTrivial": (spectrum.MaxTrivial, lambda: ((2, 3), {}), "a"),
    "MaxCompletion": (spectrum.MaxCompletion, lambda: ((arith.padic_residue(4, 3, 2),), {}), "x"),
    "MaxSequence": (
        spectrum.MaxSequence, lambda: ((sequences.SeqWindow(*WINDOW[0]),), {}), "window"
    ),
    "IntEM": (spectrum.IntEM, lambda: ((5,), {}), "p"),
    "SNFResult": (
        matrices.SNFResult, lambda: ((((1, 0), (0, 1)), ((2, 0), (0, 4)), ((1, 0), (-3, 1))), {}), "S"
    ),
    "ContentVerdict": (
        matrices.ContentVerdict,
        lambda: ((False,), {"witness_prime": 2, "witness_residue": 1, "witness_modulus_exp": 1}),
        "unit",
    ),
    "UcsReport": (
        matrices.UcsReport,
        lambda: ((True, False, True, True, True, True, None, ((1, 0), (0, X))), {}),
        "qualifies",
    ),
    "SeqWindow": (sequences.SeqWindow, lambda: WINDOW, "points"),
    "ExampleCertificate": (example_lab.ExampleCertificate, _certificate_args, "sign"),
}

# the reprs the records had as frozen dataclasses
REPRS = {
    'PAdicResidue': 'PAdicResidue(p=3, value=4, precision=2)',
    'BinomialForm': 'BinomialForm(coeffs=(Fraction(1, 1), Fraction(-1, 2)))',
    'SubsetDescriptor': 'SubsetDescriptor(points=(Fraction(0, 1), Fraction(1, 3)))',
    'VOrdering': (
        'VOrdering(E=SubsetDescriptor(points=None), p=2, '
        'points=(Fraction(0, 1), Fraction(1, 1)), w=(0, 0))'
    ),
    'TriVerdict': "TriVerdict(value='unknown', reason='window_ambiguous')",
    'PrimeAboveZero': "PrimeAboveZero(q=Polynomial('X - 3'))",
    'MaxTrivial': 'MaxTrivial(p=2, a=Fraction(3, 1))',
    'MaxCompletion': 'MaxCompletion(x=PAdicResidue(p=3, value=4, precision=2))',
    'MaxSequence': (
        'MaxSequence(window=SeqWindow(p=2, points=(Fraction(1, 1), Fraction(3, 1), '
        'Fraction(7, 1), Fraction(15, 1))))'
    ),
    'IntEM': 'IntEM(p=5)',
    'SNFResult': 'SNFResult(U=((1, 0), (0, 1)), S=((2, 0), (0, 4)), W=((1, 0), (-3, 1)))',
    'ContentVerdict': (
        'ContentVerdict(unit=False, c=None, multipliers=None, coverage=None, '
        'witness_gcd=None, witness_prime=2, witness_residue=1, witness_modulus_exp=1)'
    ),
    'UcsReport': (
        'UcsReport(content_unit=True, det_zero=False, a_nonunit_integer=True, '
        'acd_content_unit=True, det_outside_integers=True, qualifies=True, '
        "content_verdict=None, suggested_c=((1, 0), (0, Polynomial('X'))))"
    ),
    'SeqWindow': (
        'SeqWindow(p=2, points=(Fraction(1, 1), Fraction(3, 1), Fraction(7, 1), '
        'Fraction(15, 1)))'
    ),
    'ExampleCertificate': (
        "ExampleCertificate(beta=Polynomial('-X^5 - 5*X^4 - 2*X^3 + 20*X^2 + 31*X + 13'), "
        "gamma=Polynomial('X^3 + 4*X^2 + 4*X'), "
        "f=Polynomial('-X^6 - 6*X^5 - 6*X^4 + 22*X^3 + 55*X^2 + 44*X + 12'), "
        "g=Polynomial('X^6 + 6*X^5 + 6*X^4 - 22*X^3 - 43*X^2 - 8*X + 12'), "
        "u=Polynomial('1/2*X^6 + 3*X^5 + 3*X^4 - 11*X^3 - 53/2*X^2 - 19*X - 4'), "
        "alpha=Polynomial('1/2*X^6 + 3*X^5 + 3*X^4 - 11*X^3 - 49/2*X^2 - 13*X'), "
        "delta=Polynomial('-2*X^2 - 6*X - 4'), sign=1, checks={'u_int_valued': True, "
        "'alpha_int_valued': True, 'beta_int_valued': True, 'gamma_int_valued': True, "
        "'delta_int_valued': True, 'relation_unit': True, 'rank_one': True, "
        "'square_identity': True, 'det_c_zero': True, 'trace_bc_one': True, "
        "'bc_idempotent': True, 'bc_nontrivial': True, 'content_bc_unit': True, "
        "'printed_g_agreement': True})"
    ),
}

# records with a dict field, which cannot be hashed
UNHASHABLE = {"ExampleCertificate"}

# record name -> constructor arguments that its validation refuses
REFUSED = {
    "PAdicResidue": [(4, 1, 1), (3, 0, 0), (3, 9, 2), (3, -1, 1)],
    "SubsetDescriptor": [((),), ((Fraction(1), Fraction(1)),)],
    "PrimeAboveZero": [(Polynomial.constant(5),), (2 * X - 1,)],
    "MaxTrivial": [(4, 1), (2, Fraction(1, 2))],
    "MaxSequence": [(sequences.SeqWindow(2, (0, 1, 2)),)],
    "IntEM": [(1,), (6,)],
    "SeqWindow": [(4, (1, 2, 3)), (2, (1, 3)), (2, (1, 3, 1)), (3, (0, Fraction(1, 3), 1))],
}


def _build(name, cls=None):
    args, kwargs = CASES[name][1]()
    return (cls or CASES[name][0])(*args, **kwargs)


@pytest.mark.parametrize("name", CASES)
def test_record_contract(name):
    cls, _, field = CASES[name]
    assert cls.__name__ == name
    record, again = _build(name), _build(name)
    assert repr(record) == REPRS[name]
    assert record == again and not record != again
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(again)
    # a class of the same name and fields is another class
    twin = _build(name, type(name, (cls,), {}))
    assert repr(twin) == repr(record)
    assert record != twin and twin != record
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(again, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert record == again
    for args in REFUSED.get(name, ()):
        with pytest.raises(DomainError):
            cls(*args)


@pytest.mark.parametrize("name", CASES)
def test_construction_costs_no_more_calls_than_a_dataclass(name):
    """A frozen dataclass with the same fields, defaults and __post_init__
    makes at least as many calls to build the same record."""
    cls = CASES[name][0]
    code = cls.__init__.__code__
    names = code.co_varnames[1:code.co_argcount]
    defaults = dict(zip(reversed(names), reversed(cls.__init__.__defaults__ or ())))
    fields = [(n, object, dataclasses.field(default=defaults[n])) if n in defaults else (n, object)
              for n in names]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    twin = dataclasses.make_dataclass(name, fields, namespace=namespace, frozen=True)
    args, kwargs = CASES[name][1]()
    assert repr(twin(*args, **kwargs)) == repr(cls(*args, **kwargs))
    assert _calls(lambda: cls(*args, **kwargs)) <= _calls(lambda: twin(*args, **kwargs))


def _calls(build) -> int:
    """Python and builtin calls that build() makes, as the benchmark counts them."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(hook)
    try:
        build()
    finally:
        sys.setprofile(None)
    return count


def test_every_record_is_covered():
    """Each class of the package built on the record helper has a case."""
    found = {
        value.__name__
        for module in (arith, example_lab, matrices, poly, sequences, spectrum, vorder)
        for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, arith.Record) and value is not arith.Record
    }
    assert found == set(CASES)


def test_known_solution_marks_the_printed_g():
    """`verify_known_solution` returns the recovered certificate with one
    more check, made by replacing the record's `checks` field."""
    cert = example_lab.verify_known_solution()
    recovered = example_lab.recover_solution(
        example_lab.KNOWN_BETA, example_lab.KNOWN_GAMMA, cert.g, cert.sign
    )
    assert cert.checks == {**recovered.checks, "printed_g_agreement": True}
    assert "printed_g_agreement" not in recovered.checks
    for name in ("beta", "gamma", "f", "g", "u", "alpha", "delta", "sign"):
        assert getattr(cert, name) == getattr(recovered, name)
    assert type(cert) is example_lab.ExampleCertificate and cert.all_ok
