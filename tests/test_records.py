"""Result classes are plain classes: value semantics, and no ``dataclasses`` at import."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import picard
from picard.conductor import ConductorReport, GlobalConductor
from picard.cover import SpecialFiber
from picard.curves import EquivalenceWitness
from picard.exact import poly_from_ints
from picard.localfield import NewtonPolygon, TameExtension, newton_polygon
from picard.search import SearchConfig
from picard.wild3 import WildWitness, WitnessChart


def _chart():
    return WitnessChart(1, (0, 1), 2, ((1,), (0, 2)), 1)


def _report(detail=None):
    return ConductorReport(5, "computed", 2, 2, "b", 2, 0, False, ("n",), {"k": 1} if detail is None else detail)


# (make, a field to assign, the repr that dataclasses gave the same object)
FROZEN = [
    (lambda: TameExtension(3, 8, -1), "e", "TameExtension(p=3, e=8, c=-1)"),
    (
        lambda: newton_polygon(poly_from_ints([1, 0, 0, 25, 5]), 5),
        "slopes",
        "NewtonPolygon(prime=5, vertices=((0, 1), (4, 0)), slopes=((Fraction(-1, 4), 4),))",
    ),
    (
        lambda: SpecialFiber("b", (((0, 1), 1, 1), ((0, 1, 2, 3), 1, 1)), ((1, (0, 1), (0, 1, 2, 3)),), 0),
        "gamma",
        "SpecialFiber(reduction_type='b', components=(((0, 1), 1, 1), ((0, 1, 2, 3), 1, 1)),"
        " edges=((1, (0, 1), (0, 1, 2, 3)),), gamma=0)",
    ),
    (
        lambda: EquivalenceWitness(Fraction(2), Fraction(1, 3)),
        "u",
        "EquivalenceWitness(u=Fraction(2, 1), shift=Fraction(1, 3), lc=Fraction(1, 1))",
    ),
    (
        _chart,
        "y_codim",
        "WitnessChart(x_scale=1, x_center=(0, 1), y_scale=2, y_poly=((1,), (0, 2)), y_codim=1)",
    ),
    (
        lambda: WildWitness(3, 8, (_chart(),), (1, 0, 0, 0, 1)),
        "curve",
        "WildWitness(p=3, m=8, charts=(WitnessChart(x_scale=1, x_center=(0, 1), y_scale=2,"
        " y_poly=((1,), (0, 2)), y_codim=1),), curve=(1, 0, 0, 0, 1))",
    ),
    (
        lambda: SearchConfig((5, 2, 5), 4, 2, -1),
        "primes",
        "SearchConfig(primes=(2, 5), height=4, workers=2, resume_from=-1)",
    ),
    (
        _report,
        "notes",
        "ConductorReport(p=5, status='computed', f_lo=2, f_hi=2, reduction_type='b', epsilon=2,"
        " delta=0, exceptional=False, notes=('n',), detail={'k': 1})",
    ),
    (
        lambda: GlobalConductor(1, 5**2, (_report(),)),
        "reports",
        "GlobalConductor(n_lo=1, n_hi=25, reports=(ConductorReport(p=5, status='computed', f_lo=2,"
        " f_hi=2, reduction_type='b', epsilon=2, delta=0, exceptional=False, notes=('n',),"
        " detail={'k': 1}),))",
    ),
]


@pytest.mark.parametrize("make, field, text", FROZEN, ids=[text.split("(")[0] for _, _, text in FROZEN])
def test_frozen_records_are_values(make, field, text):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert repr(a) == text
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert repr(a) == text
    # worker processes send reports back pickled; copy goes the same way
    assert pickle.loads(pickle.dumps(a)) == a and copy.copy(a) == a
    assert a != object()


def test_records_with_different_fields_differ():
    assert TameExtension(3, 8, 1) != TameExtension(3, 8, -1)
    assert SearchConfig((2, 3), 4) == SearchConfig((3, 2, 2), 4) != SearchConfig((2, 3), 5)
    assert NewtonPolygon(5, (), ()) != TameExtension(5, 1)


def test_conductor_report_eq_ignores_detail():
    a, b = _report({"k": 1}), _report({"k": 2, "other": [1]})
    assert a == b and hash(a) == hash(b)
    assert _report() != ConductorReport(5, "computed", 2, 2, "b", 2, 0, False, (), {"k": 1})
    assert ConductorReport(5, "bounded", 0, 2).detail == {}


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TameExtension(5, 10), "ramification index must be prime to p"),
        (lambda: TameExtension(5, 2, 2), "uniformizer convention wants c = 1 or -1"),
        (lambda: ConductorReport(5, "computed", 0, 2), "computed report needs a single f_p value"),
        (lambda: ConductorReport(3, "bounded", 3, 21), "f_3 >= 4 for every Picard curve over Q"),
        (lambda: ConductorReport(2, "computed", 1, 1), "f_2 = 1 is impossible"),
        (lambda: SearchConfig((), 3), "S must be nonempty"),
        (lambda: SearchConfig((2, 4), 3), "S must hold primes only, not 4"),
        (lambda: SearchConfig((2, True), 3), "S must hold primes only, not True"),
        (lambda: SearchConfig((2,), 0), "height must be >= 1"),
        (lambda: SearchConfig((2,), 3, 0), "workers must lie in [1, 32]"),
        (lambda: SearchConfig((2,), 3, 1, 4), "resume token must lie in [-3, 3]"),
    ],
)
def test_record_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_import_does_not_load_dataclasses():
    # importing dataclasses pulls in inspect, ast and dis: most of picard's import time
    src = str(Path(picard.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import picard; from picard.fixtures import load_fixtures; load_fixtures(); "
        "print('dataclasses' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.split() == ["False"]
