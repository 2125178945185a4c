"""Every way ``Harness.sweep`` can reject sigma, reached by patching the bijection.

The sweep is the exhaustive proof that sigma is a bijection onto the
uvu-avoiding class; each test breaks one property that proof relies on and
checks that the sweep names it.  The series relations of criterion 9 are
broken the same way, by patching one coefficient of an expansion, and its
decomposition checks by patching the records that the decompositions
return; every other failure detail of the criteria is reached by patching
one route.
A check that raises must fail its own criterion and leave the others to run,
and the harness must refuse bounds that are no nonnegative int.
"""

import itertools
from collections import Counter

import pytest

from gmotzkin import bijection, cli, enumeration, formulas, series, verify
from gmotzkin.enumeration import AVOID_UVU, AVOID_UVV, NO_CONSTRAINTS
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
    _heights,
)
from gmotzkin.polyring import ONE, VAR_A, VAR_B, VAR_C, ZERO, DivergenceError, Polynomial
from gmotzkin.series import PowerSeries
from gmotzkin.verify import Harness

real_sigma = bijection.sigma
real_sigma_inv = bijection.sigma_inv
real_generate = verify.generate
real_expand = verify.expand


def test_sweep_passes_on_the_real_bijection():
    rec = Harness(max_n=3).sweep(3)
    assert rec.error is None
    assert rec._fields == ("a", "b", "c", "error")
    assert (rec.a, rec.b, rec.c) == (7, 4, 2)


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


@pytest.mark.parametrize("n", range(9))
def test_is_path_is_the_heights_definition(n):
    # min over the running heights is 0 and the last is 0; words with an x
    # are no paths, wherever the x stands
    for steps in itertools.product("udhv", repeat=n):
        word = "".join(steps)
        hs = _heights(word)
        assert verify._is_path(word) is (min(hs) == 0 == hs[-1]), word
        for i in range(n + 1):
            assert verify._is_path(word[:i] + "x" + word[i:]) is False


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


real_grammar = bijection._grammar


def patch_grammar(monkeypatch, change):
    """``_grammar`` with ``change`` applied to the list of (word, class)
    pairs it streams."""
    monkeypatch.setattr(bijection, "_grammar", lambda n: iter(change(list(real_grammar(n)))))


def c_as_b(pairs):
    """A grammar stream that classes every class-C word as B."""
    return [(word, bijection.CLASS_B if cls == bijection.CLASS_C else cls) for word, cls in pairs]


# At n = 2, the grammar streams ud, uhv, uvh, huv, hh, in the classes (2, 1, 2);
# each change acts on the list of its (word, class) pairs.
@pytest.mark.parametrize(
    "change,error",
    [
        (
            lambda words: words[:1] + words[2:],
            "sigma fixes ('uhv', 'C'), fixed_points lists ('uvh', 'A') there",
        ),
        (lambda words: words[:-1], "sigma fixes ('hh', 'A'), fixed_points lists None there"),
        (
            lambda words: words[:2] + words[1:],
            "sigma fixes ('uvh', 'A'), fixed_points lists ('uhv', 'C') there",
        ),
        (
            lambda words: words + words[-1:],
            "fixed_points lists ('hh', 'A') after the last path sigma fixes",
        ),
        (
            lambda words: words[1:2] + words[:1] + words[2:],
            "sigma fixes ('ud', 'C'), fixed_points lists ('uhv', 'C') there",
        ),
    ],
    ids=["drops a word", "drops the last word", "repeats a word", "repeats the last word", "swaps two words"],
)
def test_sweep_reads_fixed_points_word_for_word(monkeypatch, change, error):
    patch_grammar(monkeypatch, change)
    assert Harness().sweep(2).error == error


def test_sweep_checks_the_classes_of_fixed_points(monkeypatch):
    patch_grammar(monkeypatch, c_as_b)
    assert Harness().sweep(2).error == "sigma fixes ('ud', 'C'), fixed_points lists ('ud', 'B') there"


def test_sweep_checks_each_class_not_only_their_totals(monkeypatch):
    # uvh (A) and huv (B) trade classes: the counts by class stay (2, 1, 2)
    def swap(pairs):
        classes = dict(pairs)
        other = {"uvh": "huv", "huv": "uvh"}
        return [(word, classes[other.get(word, word)]) for word, _ in pairs]

    patch_grammar(monkeypatch, swap)
    assert Harness().sweep(2).error == "sigma fixes ('uvh', 'A'), fixed_points lists ('uvh', 'B') there"


def test_a_walk_that_meets_no_fixed_point_fails(monkeypatch):
    # 22 copies of uudv, which sigma moves: as many images as the uvu
    # class has paths, each one valid
    def generate(n, constraints=None):
        return iter(["uudv"] * 22 if constraints == AVOID_UVV else real_generate(n, constraints))

    monkeypatch.setattr(verify, "generate", generate)
    assert Harness().sweep(3).error == "sigma fixes no path"


def test_fixed_points_that_lists_a_word_sigma_moves_fails_criterion_4(monkeypatch):
    # sigma followed by the swap of uvh and huv: a weight-keeping bijection
    # onto the uvu class that moves two words of the grammar; hh, the
    # next path it fixes, meets uvh in the grammar's stream
    swap = {"uvh": "huv", "huv": "uvh"}
    monkeypatch.setattr(bijection, "sigma", lambda q: swap.get(q, real_sigma(q)))
    monkeypatch.setattr(bijection, "sigma_inv", lambda p: swap.get(p) or real_sigma_inv(p))
    result = Harness(max_n=2).criterion_4()
    assert not result.ok
    assert result.detail == "n=2: sigma fixes ('hh', 'A'), fixed_points lists ('uvh', 'A') there"


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


def test_criterion_6_reports_the_sweep_error(monkeypatch):
    monkeypatch.setattr(bijection, "sigma", lambda q: real_sigma(q) + "h")
    result = Harness(max_n=2).criterion_6()
    assert not result.ok
    assert result.detail == "n=0: sigma() = h changes the weight"


def test_criterion_6_names_classes_that_miss_the_recurrence(monkeypatch):
    # every class-C fixed point counted as B, by the sweep and by the
    # grammar alike: F is unchanged, so the sweep and the four-way agreement
    # hold and the class check fails first, at n = 2
    real_classify = bijection._classify

    def classify(q):
        found = real_classify(q)
        return bijection.CLASS_B if found == bijection.CLASS_C else found

    monkeypatch.setattr(bijection, "_classify", classify)
    patch_grammar(monkeypatch, c_as_b)
    result = Harness(max_n=3).criterion_6()
    assert not result.ok
    assert result.detail == "n=2: classes (2, 3, 0) != recurrence (2, 1, 2)"


@pytest.mark.parametrize(
    "change,detail",
    [
        (
            lambda counts: counts._replace(a=counts.a + 1),
            "n=2: {'brute force': 5, 'closed form': 5, 'recurrence': 5, 'series': 5, "
            "'fixed_points': 6, 'frozen table': 5}",
        ),
        # the total still right, two classes off by one
        (
            lambda counts: counts._replace(a=counts.a + 1, b=counts.b - 1),
            "n=2: fixed_points classes (3, 0, 2) != recurrence (2, 1, 2)",
        ),
    ],
    ids=["f", "classes"],
)
def test_criterion_6_reads_the_counts_of_fixed_points(monkeypatch, change, detail):
    real_fixed_points = bijection.fixed_points

    def fixed_points(n):
        counts = real_fixed_points(n)
        return change(counts) if n == 2 else counts

    monkeypatch.setattr(bijection, "fixed_points", fixed_points)
    result = Harness(max_n=3).criterion_6()
    assert (result.ok, result.detail) == (False, detail)


def test_tables_and_criterion_7_read_one_specialization_check(monkeypatch, capsys):
    # M_n + c vanishes at c = 0, so only the polynomial Motzkin row fails
    real_motzkin = formulas.motzkin_weight
    monkeypatch.setattr(formulas, "motzkin_weight", lambda n: real_motzkin(n) + C)
    assert cli.main(["tables", "--max-n", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  (a,0,b)    Motzkin polynomial M_n(a,b): MISMATCH" in out
    assert "  (a,b,b^2)  Schroeder polynomial S_n(a,b): ok" in out
    result = Harness(max_n=3).criterion_7()
    assert not result.ok
    assert result.detail == "n=0: (a,0,b) Motzkin polynomial"


A, B, C = VAR_A, VAR_B, VAR_C


def perturbed_expand(kind, n, term):
    """``expand`` with ``term`` added to coefficient n of ``kind``, in an
    expansion that reaches it."""

    def expand(k, order):
        s = real_expand(k, order)
        if k != kind or n > order:
            return s
        coeffs = list(s.coeffs)
        coeffs[n] = coeffs[n] + term
        return PowerSeries(tuple(coeffs))

    return expand


@pytest.mark.parametrize(
    "kind,n,term,message",
    [
        # G_uvv_n stands at x^(n + 1) in T = x G_uvv
        ("G_uvv", 5, A * B * B * C, "T relation fails at x^6"),
        ("T", 7, Polynomial.monomial(0, 6, 0), "Gbar relation fails at x^7"),
        # Gbar_n stands at x^(n + 1) in x Gbar (1 + a T) = T
        ("Gbar_uvv", 3, Polynomial.monomial(3, 0, 0), "Gbar relation fails at x^4"),
        # T_0 + 1 is nonzero at T_0's degree -1, so it fails to pack: no power
        ("T", 0, Polynomial.const(1), "Gbar relation fails"),
        ("Gbar_uvv", 8, -C * C * C * C, "Gbar relation fails at x^9"),
        ("F", 4, Polynomial.const(1), "F vs A relation fails at x^4"),
        ("A", 6, Polynomial.const(1), "F vs A relation fails at x^6"),
        # F and A are compared unpacked, so a term that is not a constant
        # fails at its power
        ("F", 3, A, "F vs A relation fails at x^3"),
        ("A", 3, A, "F vs A relation fails at x^3"),
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
        ("G_uvv", 5, "T relation fails at x^6"),
        ("T", 7, "Gbar relation fails"),
        ("Gbar_uvv", 3, "Gbar relation fails"),
        ("F", 4, "F vs A relation fails at x^4"),
        ("A", 6, "F vs A relation fails at x^6"),
    ],
)
def test_series_residuals_reject_a_term_that_vanishes_at_a_1(monkeypatch, kind, n, message):
    # a - 1 is 0 at a = 1, where the Gbar relation is packed; the codec's
    # homogeneity guard must catch it in T and Gbar, without a traceback.
    # G_uvv, F and A are compared unpacked, at the term's power.
    a_minus_1 = A - Polynomial.const(1)
    monkeypatch.setattr(verify, "expand", perturbed_expand(kind, n, a_minus_1))
    assert Harness(series_order=8)._series_residuals() == message


@pytest.mark.parametrize("s", [[1], [1, -2], [0, 3, -1, 4], [2, 0, 0, 5, -7, 1]])
def test_convolve_squares_like_a_product(s):
    # the general product, here of s with a copy of itself, against the
    # double sum over every pair of coefficients
    assert verify._convolve(s, list(s)) == [
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


# Records that ``reassemble`` refuses: one part more or fewer than their
# case takes, a case that does not exist, or a negative elevation.
REFUSED_RECORDS = {
    "Case1 with a surplus part": (
        "decompose_forward", "huv", Decomposition(CASE1, 0, ("uv", "hh")),
        "case Case1 takes 1 part(s), got 2",
    ),
    "CaseIV with a surplus part": (
        "decompose_inverse", "ud", Decomposition(CASE_IV, 1, ("", "", "x")),
        "case CaseIV takes 2 part(s), got 3",
    ),
    "Case3 with a part missing": (
        "decompose_forward", "uvud", Decomposition(CASE3, 0, ("ud",)),
        "case Case3 takes 2 part(s), got 1",
    ),
    "CaseIII with no part": (
        "decompose_inverse", "uhv", Decomposition(CASE_III, 0, ()),
        "case CaseIII takes 2 part(s), got 0",
    ),
    "an unknown case": (
        "decompose_forward", "h", Decomposition("Case7", 0, ("h",)),
        "unknown case 'Case7'",
    ),
    "Case4 with a negative elevation": (
        "decompose_forward", "udh", Decomposition(CASE4, -1, ("h",)),
        "elevation must be an int >= 0, not -1",
    ),
}


@pytest.mark.parametrize("name", REFUSED_RECORDS)
def test_decomposition_checker_reports_what_reassemble_refuses(monkeypatch, name):
    target, word, record, reason = REFUSED_RECORDS[name]
    monkeypatch.setattr(verify, target, lambda w: record)
    direction = target.removeprefix("decompose_")
    assert CHECKERS[target](word) == f"{direction} record {record} of {word}: {reason}"


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
    # two), the checker accepts the real one and no other.  A record that
    # reassemble refuses reassembles to nothing, and the checker rejects it.
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
                    try:
                        whole = record.reassemble()
                    except ValueError:
                        whole = None
                    if whole not in (None, word):
                        continue
                    monkeypatch.setattr(verify, target, lambda w: record)
                    error = CHECKERS[target](word)
                    if whole is None:
                        assert error is not None, record
                    elif error is None:
                        accepted.append(record)
            assert accepted == [real(word)], word


real_weight_sum = verify.weight_sum
real_schroder_weight = formulas.schroder_weight

# One failure detail of each check that no other test reaches: (criterion,
# max_n, patched module, patched name, replacement, detail).
FAILURE_DETAILS = {
    "closed form": (
        1, 1, verify, "weight_sum", lambda n, con: real_weight_sum(n, con) + ONE,
        "g_uvv form 1 at n=0: 1 != 2",
    ),
    "series coefficient": (
        2, 3, verify, "expand", perturbed_expand("Gbar_uvv", 2, A),
        "Gbar_uvv coefficient 2 != oracle",
    ),
    "c -> b^2 + c": (
        3, 2, verify, "expand", perturbed_expand("G", 2, A), "series c->b^2+c fails at n=2",
    ),
    "c = b^2": (
        3, 2, verify, "expand", perturbed_expand("G_uvu", 2, A), "series c=b^2 fails at n=2",
    ),
    "sample sigma": (5, 0, bijection, "sigma", lambda q: "uv", "sigma gave uv"),
    "sample sigma_inv": (5, 0, bijection, "sigma_inv", lambda p: "uv", "sigma_inv gave uv"),
    "fixed-point count": (
        6, 1, formulas, "f_closed", lambda n: 0,
        "n=0: {'brute force': 1, 'closed form': 0, 'recurrence': 1, 'series': 1, "
        "'fixed_points': 1, 'frozen table': 1}",
    ),
    # closed form 1 against the series past all_nmax: criterion 7 alone
    "specialization series": (
        7, 10, verify, "expand", perturbed_expand("G_uvv", 9, A), "n=9: (1, 0, 2) series",
    ),
    "weight relation": (
        8, 1, formulas, "schroder_weight", lambda n: real_schroder_weight(n) + C,
        "n=1: schroder_eq_shifted_dyck",
    ),
    "record of another word": (
        9, 1, verify, "decompose_forward",
        lambda word: real_decompose_forward("h" if word == "uv" else word),
        "forward record Decomposition(case='Base', elevation=0, parts=('h',)) "
        "does not reassemble to uv",
    ),
}


@pytest.mark.parametrize("name", FAILURE_DETAILS)
def test_each_failure_detail_names_what_failed(monkeypatch, name):
    k, max_n, module, attr, replacement, detail = FAILURE_DETAILS[name]
    monkeypatch.setattr(module, attr, replacement)
    result = getattr(Harness(max_n=max_n, series_order=3), f"criterion_{k}")()
    assert (result.ok, result.detail) == (False, detail)


def test_criterion_3_reads_the_series_past_series_order(monkeypatch):
    # the series run through x^max(series_order + 1, avoid_nmax), here x^4
    monkeypatch.setattr(verify, "expand", perturbed_expand("G", 3, A))
    result = Harness(max_n=4, series_order=1).criterion_3()
    assert (result.ok, result.detail) == (False, "series c->b^2+c fails at n=3")


def patched_row(kind, entry, row):
    """A patch that gives ``kind`` a wrong P, Q or D (entry 0, 1 or 2) in
    ``series._EQUATIONS``, which ``expand`` then certifies as its row."""

    def patch(monkeypatch):
        rows = list(series._EQUATIONS[kind])
        rows[entry] = row
        monkeypatch.setitem(series._EQUATIONS, kind, tuple(rows))

    return patch


def patched(module, attr, replacement):
    """A patch that sets ``module.attr`` to ``replacement``."""
    return lambda monkeypatch: monkeypatch.setattr(module, attr, replacement)


B6, B9 = Polynomial.monomial(0, 6, 0), Polynomial.monomial(0, 9, 0)


@pytest.mark.parametrize(
    "patch,max_n,series_order,failed",
    [
        # the Schroeder weights that criterion 4's class size check read
        (
            patched(formulas, "schroder_weight", lambda n: real_schroder_weight(n) + ONE), 1, 3,
            [("specialization table", "n=0: (a,b,b^2) Schroeder polynomial"),
             ("weight relations", "n=1: schroder_eq_shifted_dyck")],
        ),
        # the oracle rows that criterion 3 read, here G_2 + a
        (
            patched(
                verify, "weight_sum",
                lambda n, con: real_weight_sum(n, con) + (A if (n, con) == (2, NO_CONSTRAINTS) else ZERO),
            ),
            2, 3,
            [("series vs oracle", "G coefficient 2 != oracle")],
        ),
        # the rows that criterion 9 does not restate, each wrong past the
        # oracle's bounds: expand certifies the wrong row, and the checks
        # that read its series still fail
        (
            patched_row("G_uvv", 1, [ZERO, B, C - B * B, *[ZERO] * 6, B9]), 6, 12,
            [("substitution identities", "series c->b^2+c fails at n=9"),
             ("structural suite", "T relation fails at x^10")],
        ),
        (
            patched_row("T", 1, [B, C]), 6, 12,
            [("structural suite", "Gbar relation fails at x^3")],
        ),
        (
            patched_row("F", 0, [Polynomial.const(k) for k in (1, 3, 3, 1, 0, 0, 0, 0, 0, 1)]),
            6, 12,
            [("structural suite", "F vs A relation fails at x^9")],
        ),
        # a fault in T alone, which T's own equation would name
        (
            patched(verify, "expand", perturbed_expand("T", 7, B6)), 6, 12,
            [("structural suite", "Gbar relation fails at x^7")],
        ),
    ],
    ids=[
        "Schroeder weight + 1",
        "oracle G_2 + a",
        "G_uvv Q_9 = b^9",
        "T Q = b + cx",
        "F P = (1 + x)^3 + x^9",
        "T_7 + b^6",
    ],
)
def test_faults_of_the_dropped_rows_still_fail(monkeypatch, patch, max_n, series_order, failed):
    patch(monkeypatch)
    results = Harness(max_n=max_n, series_order=series_order).run_all()
    assert [(r.name, r.detail) for r in results if not r.ok] == failed


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


def test_check_result_is_immutable():
    result = verify.CheckResult("name", False, "what failed")
    with pytest.raises(AttributeError):
        result.ok = True
    assert result.line() == "FAIL  name  [what failed]"


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
