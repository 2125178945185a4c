"""Every way ``Harness.sweep`` can reject sigma, reached by patching the bijection.

The sweep is the exhaustive proof that sigma is a bijection onto the
uvu-avoiding class; each test breaks one property that proof relies on and
checks that the sweep names it.  The packed series residuals of criterion 9
are broken the same way, by patching one coefficient of an expansion, and its
decomposition checks by patching the records that the decompositions return.
A check that raises must fail its own criterion and leave the others to run,
and the harness must refuse bounds that are no nonnegative int.
"""

import itertools
from collections import Counter

import pytest

from gmotzkin import bijection, cli, enumeration, verify
from gmotzkin.enumeration import AVOID_UVU, AVOID_UVV
from gmotzkin.paths import (
    BASE,
    BASE_INV,
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    CASE5,
    CASE6,
    CASE_I,
    CASE_II,
    CASE_III,
    CASE_IV,
    CASE_V,
    Decomposition,
)
from gmotzkin.polyring import DivergenceError, Polynomial, PowerSeries
from gmotzkin.verify import Harness

real_sigma = bijection.sigma
real_sigma_inv = bijection.sigma_inv
real_generate = verify.generate
real_expand = verify.expand


def test_sweep_passes_on_the_real_bijection():
    rec = Harness(max_n=3).sweep(3)
    assert rec.error is None
    assert (rec.size, rec.f, rec.a, rec.b, rec.c) == (22, 13, 7, 4, 2)


def test_image_with_uvu(monkeypatch):
    monkeypatch.setattr(bijection, "sigma", lambda q: "uvuv")
    assert Harness().sweep(1).error == "sigma(uv) = uvuv contains uvu"


def test_weight_change(monkeypatch):
    monkeypatch.setattr(bijection, "sigma", lambda q: real_sigma(q) + "h")
    assert Harness().sweep(1).error == "sigma(uv) = uvh changes the weight"


def test_round_trip_failure(monkeypatch):
    monkeypatch.setattr(bijection, "sigma_inv", lambda p: real_sigma_inv(p) + "h")
    assert Harness().sweep(1).error == "sigma_inv(sigma(uv)) = uvh"


def test_image_outside_the_class(monkeypatch):
    # "u" + image keeps the weight and round-trips, but is not a path.
    monkeypatch.setattr(bijection, "sigma", lambda q: "u" + real_sigma(q))
    monkeypatch.setattr(bijection, "sigma_inv", lambda p: real_sigma_inv(p[1:]))
    error = Harness().sweep(1).error
    assert error == "sigma(uv) = uuv outside the uvu-avoiding class"


def test_image_below_the_axis(monkeypatch):
    # The reversed image keeps its steps, so its weight and x-length, but
    # "vu" starts with a drop below the axis; sigma_inv would raise on it,
    # so the sweep must test membership before the round trip.
    monkeypatch.setattr(bijection, "sigma", lambda q: real_sigma(q)[::-1])
    error = Harness().sweep(1).error
    assert error == "sigma(uv) = vu outside the uvu-avoiding class"


def test_image_with_a_character_outside_the_alphabet(monkeypatch):
    # "xv" has the weight and the x-length of "uv", but x is no step.
    monkeypatch.setattr(bijection, "sigma", lambda q: real_sigma(q).replace("u", "x"))
    monkeypatch.setattr(
        bijection, "sigma_inv", lambda p: real_sigma_inv(p.replace("x", "u"))
    )
    error = Harness().sweep(1).error
    assert error == "sigma(uv) = xv outside the uvu-avoiding class"


def test_sweep_shares_the_uvu_walk_with_the_weight_sums(monkeypatch):
    walks = Counter()

    def generate(n, constraints=None):
        walks[constraints, n] += 1
        return real_generate(n, constraints)

    monkeypatch.setattr(enumeration, "generate", generate)
    monkeypatch.setattr(verify, "generate", generate)
    harness = Harness(max_n=4, series_order=4)
    assert harness.criterion_3().ok
    assert harness.criterion_4().ok
    assert [walks[AVOID_UVU, n] for n in range(5)] == [1] * 5


def test_structural_fixed_point_test_disagrees(monkeypatch):
    monkeypatch.setattr(bijection, "is_fixed_by_structure", lambda q: False)
    error = Harness().sweep(1).error
    assert error == "structural fixed-point test disagrees at uv"


@pytest.mark.parametrize(
    "change,count", [(lambda words: words[:-1], 5), (lambda words: words + words[-1:], 7)]
)
def test_image_count_differs_from_class_size(monkeypatch, change, count):
    # A uvv class that misses or repeats a path: every single image is
    # valid, but the images do not cover the uvu-avoiding class exactly.
    def generate(n, constraints=None):
        words = list(real_generate(n, constraints))
        return iter(change(words) if constraints == AVOID_UVV else words)

    monkeypatch.setattr(verify, "generate", generate)
    assert Harness().sweep(2).error == f"image has {count} paths, class has 6"


def test_criterion_4_reports_the_sweep_error(monkeypatch):
    monkeypatch.setattr(bijection, "sigma", lambda q: real_sigma(q) + "h")
    result = Harness(max_n=2).criterion_4()
    assert not result.ok
    assert result.detail == "n=0: sigma() = h changes the weight"


A, B, C = (Polynomial.variable(name) for name in "abc")


def perturbed_expand(kind, n, term):
    """``expand`` with ``term`` added to coefficient n of ``kind``."""

    def expand(k, order):
        s = real_expand(k, order)
        if k != kind:
            return s
        coeffs = list(s.coeffs)
        coeffs[n] = coeffs[n] + term
        return PowerSeries(coeffs)

    return expand


@pytest.mark.parametrize(
    "kind,n,term,message",
    [
        ("G_uvv", 5, A * B * B * C, "first-return equation residual is nonzero"),
        ("T", 7, Polynomial.monomial(0, 6, 0), "T equation residual is nonzero"),
        ("Gbar_uvv", 3, Polynomial.monomial(3, 0, 0), "Gbar relation fails"),
        ("T", 0, Polynomial.const(1), "T equation residual is nonzero"),
        ("Gbar_uvv", 8, -C * C * C * C, "Gbar relation fails"),
        ("F", 4, Polynomial.const(1), "F quadratic residual is nonzero"),
        ("A", 6, Polynomial.const(1), "F vs A relation fails"),
        # F_3 + a and A_3 + a are not constants, but equal F_3 and A_3 at a = 0
        ("F", 3, A, "F quadratic residual is nonzero"),
        ("A", 3, A, "F vs A relation fails"),
    ],
    ids=[
        "G_uvv_5 + ab^2c",
        "T_7 + b^6",
        "Gbar_3 + a^3",
        "T_0 + 1",
        "Gbar_8 - c^4",
        "F_4 + 1",
        "A_6 + 1",
        "F_3 + a",
        "A_3 + a",
    ],
)
def test_series_residuals_name_the_failing_identity(monkeypatch, kind, n, term, message):
    monkeypatch.setattr(verify, "expand", perturbed_expand(kind, n, term))
    assert Harness(series_order=8)._series_residuals() == message


@pytest.mark.parametrize(
    "kind,n,message",
    [
        ("G_uvv", 5, "first-return equation residual is nonzero"),
        ("T", 7, "T equation residual is nonzero"),
        ("Gbar_uvv", 3, "Gbar relation fails"),
    ],
)
def test_series_residuals_reject_a_term_that_vanishes_at_a_1(monkeypatch, kind, n, message):
    # a - 1 is 0 at a = 1, where the residuals are packed; the codec's
    # homogeneity guard must catch it, without a traceback.
    a_minus_1 = A - Polynomial.const(1)
    monkeypatch.setattr(verify, "expand", perturbed_expand(kind, n, a_minus_1))
    assert Harness(series_order=8)._series_residuals() == message


def test_constants_read_integer_constants_only():
    consts = [Polynomial.const(2), Polynomial(), Polynomial.const(-3)]
    assert verify._constants(consts) == [2, 0, -3]
    # a term in a, b or c makes the whole list None, even where it is 0 at 0
    for term in (A, B * C, A - Polynomial.const(1)):
        assert verify._constants(consts[:1] + [term] + consts[2:]) is None


@pytest.mark.parametrize("s", [[1], [1, -2], [0, 3, -1, 4], [2, 0, 0, 5, -7, 1]])
def test_convolve_squares_like_a_product(s):
    # the square of s pairs each two coefficients once; a copy takes the
    # general sum over every pair
    square = verify._convolve(s, s)
    assert square == verify._convolve(s, list(s))
    assert square == [
        sum(s[i] * s[j] for i in range(len(s)) for j in range(len(s)) if i + j == n)
        for n in range(len(s))
    ]


@pytest.mark.parametrize("order", [0, 1, 2, 8])
def test_series_residuals_pass(order):
    assert Harness(series_order=order)._series_residuals() is None


real_decompose_forward = verify.decompose_forward
real_decompose_inverse = verify.decompose_inverse


def mutated(real, case, change):
    """``real`` with each record of ``case`` that peels a layer replaced by
    ``change(record)``."""

    def decompose(word):
        dec = real(word)
        return change(dec) if dec.case == case and dec.elevation else dec

    return decompose


def one_layer_fewer(close):
    """The record with its outer layer, closed by ``close``, in the core."""

    def change(dec):
        i, (core, rest) = dec.elevation, dec.parts
        return Decomposition(dec.case, i - 1, ("u" + core + close, rest))

    return change


# (patched name, replacement, smallest max_n that shows it, checked word, record)
MUTATIONS = {
    "Case5 as Case6": (
        "decompose_forward",
        mutated(
            real_decompose_forward,
            CASE5,
            lambda d: Decomposition(CASE6, d.elevation, ("u" + d.parts[0] + "d", d.parts[1])),
        ),
        4,
        "uuhdv",
        Decomposition(CASE6, 1, ("uhd", "")),
    ),
    "Case4 as Case6": (
        "decompose_forward",
        mutated(
            real_decompose_forward,
            CASE4,
            lambda d: Decomposition(CASE6, d.elevation, ("ud", d.parts[0])),
        ),
        3,
        "uudvh",
        Decomposition(CASE6, 1, ("ud", "h")),
    ),
    "Case6 one layer fewer": (
        "decompose_forward",
        mutated(real_decompose_forward, CASE6, one_layer_fewer("v")),
        2,
        "uuvhvh",
        Decomposition(CASE6, 0, ("uuvhv", "h")),
    ),
    "Case6 at elevation 0": (
        "decompose_forward",
        mutated(
            real_decompose_forward,
            CASE6,
            lambda d: Decomposition(CASE6, 0, (d.reassemble(), "")),
        ),
        2,
        "uhvh",
        Decomposition(CASE6, 0, ("uhvh", "")),
    ),
    "CaseV as CaseIV": (
        "decompose_inverse",
        mutated(
            real_decompose_inverse,
            CASE_V,
            lambda d: Decomposition(CASE_IV, d.elevation, ("u" + d.parts[0] + "v", d.parts[1])),
        ),
        4,
        "uuhvd",
        Decomposition(CASE_IV, 1, ("uhv", "")),
    ),
    "CaseIV one layer fewer": (
        "decompose_inverse",
        mutated(real_decompose_inverse, CASE_IV, one_layer_fewer("d")),
        2,
        "uudd",
        Decomposition(CASE_IV, 1, ("ud", "")),
    ),
}

CHECKERS = {
    "decompose_forward": verify._check_forward_decomposition,
    "decompose_inverse": verify._check_inverse_decomposition,
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_decomposition_checker_names_the_word(monkeypatch, name):
    target, decompose, _, word, record = MUTATIONS[name]
    monkeypatch.setattr(verify, target, decompose)
    assert decompose(word) == record
    error = CHECKERS[target](word)
    assert error is not None and f"{record} of {word}:" in error


# Records with one part more or fewer than their case takes.
WRONG_PART_COUNTS = {
    "Case1 with a surplus part": ("decompose_forward", "huv", Decomposition(CASE1, 0, ("uv", "hh"))),
    "CaseIV with a surplus part": ("decompose_inverse", "ud", Decomposition(CASE_IV, 1, ("", "", "x"))),
    "Case3 with a part missing": ("decompose_forward", "uvud", Decomposition(CASE3, 0, ("ud",))),
}


@pytest.mark.parametrize("name", WRONG_PART_COUNTS)
def test_decomposition_checker_refuses_a_wrong_part_count(monkeypatch, name):
    target, word, record = WRONG_PART_COUNTS[name]
    monkeypatch.setattr(verify, target, lambda w: record)
    error = CHECKERS[target](word)
    assert error is not None and f"{record} of {word}: {record.case} takes" in error


@pytest.mark.parametrize("name", MUTATIONS)
def test_criterion_9_fails_on_a_mislabelled_decomposition(monkeypatch, name):
    target, decompose, max_n, _, _ = MUTATIONS[name]
    assert Harness(max_n=max_n - 1, series_order=2).criterion_9().ok
    monkeypatch.setattr(verify, target, decompose)
    result = Harness(max_n=max_n, series_order=2).criterion_9()
    assert not result.ok
    assert "record Decomposition(" in result.detail


# The number of parts of each case's record.
FORWARD_PARTS = {BASE: 1, CASE1: 1, CASE2: 1, CASE3: 2, CASE4: 1, CASE5: 2, CASE6: 2}
INVERSE_PARTS = {BASE_INV: 1, CASE_I: 1, CASE_II: 1, CASE_III: 2, CASE_IV: 2, CASE_V: 2}


@pytest.mark.parametrize(
    "target,constraints,parts_of",
    [
        ("decompose_forward", AVOID_UVV, FORWARD_PARTS),
        ("decompose_inverse", AVOID_UVU, INVERSE_PARTS),
    ],
)
def test_the_rule_admits_only_the_real_record(monkeypatch, target, constraints, parts_of):
    # Among all records that reassemble to the word (every elevation up to
    # half its length, a suffix as last part and a substring as the first of
    # two), the checker accepts the real one and no other.
    real = getattr(verify, target)
    for n in range(5):
        for word in real_generate(n, constraints):
            size = len(word) + 1
            subs = {word[s:e] for s in range(size) for e in range(s, size)}
            suffixes = {word[t:] for t in range(size)}
            accepted = []
            for case, count in parts_of.items():
                shapes = [(s,) for s in suffixes] if count == 1 else [*itertools.product(subs, suffixes)]
                for i, parts in itertools.product(range(size // 2 + 1), shapes):
                    record = Decomposition(case, i, parts)
                    if record.reassemble() != word:
                        continue
                    monkeypatch.setattr(verify, target, lambda w: record)
                    if CHECKERS[target](word) is None:
                        accepted.append(record)
            assert accepted == [real(word)], word


# The detail of each criterion of a passing Harness(max_n=3, series_order=8).
PASS_DETAILS = [
    ("closed forms vs oracle", "5 + 3 forms, n = 0..3"),
    ("series vs oracle", "4 kinds, n = 0..3"),
    ("substitution identities", "oracle n = 0..3, series order 8"),
    ("bijection suite", "n = 0..3"),
    ("sample bijection pair", "28-step input and image"),
    ("fixed points", "four-way agreement, n = 0..3"),
    ("specialization table", "7 rows, n = 0..3"),
    ("weight relations", "n = 1..3"),
    ("structural suite", "decompositions n <= 3, residuals order 8"),
]


def test_passing_criteria_give_their_names_and_details():
    results = Harness(max_n=3, series_order=8).run_all()
    assert all(r.ok for r in results)
    assert [(r.name, r.detail) for r in results] == PASS_DETAILS


def test_smallest_bounds_pass():
    assert all(r.ok for r in Harness(max_n=0, series_order=0).run_all())


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"max_n": -1}, "max_n"),
        ({"max_n": "3"}, "max_n"),
        ({"max_n": True}, "max_n"),
        ({"max_n": 2.0}, "max_n"),
        ({"series_order": -1}, "series_order"),
        ({"series_order": "8"}, "series_order"),
        ({"series_order": False}, "series_order"),
        ({"series_order": None}, "series_order"),
    ],
)
def test_harness_rejects_a_bad_bound(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative int"):
        Harness(**kwargs)


def raising_sigma(q):
    raise AssertionError(f"a Case6 Q'' ends in uv in {q}")


def diverging_expand(kind, order):
    raise DivergenceError(f"{kind} diverges")


def test_a_check_that_raises_fails_its_criterion(monkeypatch):
    monkeypatch.setattr(bijection, "sigma", raising_sigma)
    result = Harness(max_n=2).criterion_4()
    assert (result.name, result.ok) == ("bijection suite", False)
    assert result.detail == "AssertionError: a Case6 Q'' ends in uv in "
    monkeypatch.undo()
    monkeypatch.setattr(verify, "expand", diverging_expand)
    result = Harness(max_n=2).criterion_3()
    assert (result.name, result.ok) == ("substitution identities", False)
    assert result.detail == "DivergenceError: G_uvv diverges"


@pytest.mark.parametrize(
    "target,name,replacement,failed",
    [
        (bijection, "sigma", raising_sigma, ["bijection suite", "sample bijection pair", "fixed points"]),
        (
            verify,
            "expand",
            diverging_expand,
            [
                "series vs oracle",
                "substitution identities",
                "fixed points",
                "specialization table",
                "structural suite",
            ],
        ),
    ],
)
def test_verify_reports_a_raising_check_and_runs_the_rest(
    monkeypatch, capsys, target, name, replacement, failed
):
    monkeypatch.setattr(target, name, replacement)
    assert cli.main(["verify", "--max-n", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert [line.split("  ")[1] for line in lines[:9]] == [name for name, _ in PASS_DETAILS]
    assert [line.split("  ")[1] for line in lines if line.startswith("FAIL")] == failed
    assert lines[-1] == f"{9 - len(failed)}/9 checks passed"


def test_criterion_9_does_not_sweep(monkeypatch):
    def sweep(self, n):
        raise AssertionError("criterion 9 swept")

    monkeypatch.setattr(Harness, "sweep", sweep)
    assert Harness(max_n=3, series_order=4).criterion_9().ok
