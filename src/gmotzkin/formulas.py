"""Closed forms and recurrences for the path counts, all in exact integers.

Notation used throughout (G stands for the weight sum over paths of length
n in the class named by the superscript):

  C_n(a,b)  weight of (a,b)-Dyck paths: down-steps closing a peak weigh a,
            all other down-steps weigh b.
  M_n(a,b)  weight of (a,b)-Motzkin paths, i.e. (a,0,b)-G-Motzkin paths.
  S_n(a,b)  weight of (a,b)-Schroeder paths (level steps a, down-steps b).
  G_n^uvv   weight of uvv-avoiding (a,b,c)-G-Motzkin paths.
  Gbar_n^uvv  the same with no h steps on the x-axis.
  F_n       number of fixed points of the bijection sigma.

Binomial coefficients follow the generalized convention ``binom``: zero
for a negative lower index, 1 for lower index 0 (any integer top), and the
falling-factorial value otherwise, which is valid for negative tops.  The
convention is validated wholesale by exact agreement with the enumeration
oracle; any disagreement between alternative forms is a bug to surface,
never to hide.

``relation_checks`` and ``specialization_checks`` test identities between
the closed forms and return them by label; the second holds the polynomial
rows of the specialization table, G_n^uvv(a,0,b) = M_n(a,b) and
G_n^uvv(a,b,b^2) = S_n(a,b), which the ``tables`` command prints and
``verify``'s criterion 7 checks.

Several alternative summation forms are provided for the same quantity
(``g_uvv_closed`` has five, ``gbar_uvv_closed`` three) and must agree
exactly.  Forms 1-2 of ``g_uvv_closed`` expand 1/(1-ax) C(...) and form 3
the extraction from T = x G^uvv: those are the independent expansions.
``g_uvv_closed`` forms 3-5, and likewise ``gbar_uvv_closed`` forms 1-3,
sum the same multinomial terms (n+1)!/(e! j! (n+1-e-j)!) of
(1 + at + kt^2)^(n+1) in three enumeration orders, each binomially
factorised its own way, so their agreement checks the loop bounds and the
factorisations, not the algebra.

Each closed-form sum except ``g_uvv_closed`` form 2 is taken in the basis
a, b, k with k = c - b^2: its terms accumulate in a dict keyed (ea, eb, j),
which stands for a^ea b^eb k^j, and ``_from_k_basis`` maps it into
Z[a, b, c] by one Taylor shift y -> y - 1 for each group of keys with the
same a^ea and b-degree eb + 2j.  Form 2 still expands every (c - b^2)^j
term by term by signed binomial rows, so forms 1 and 2 reach Z[a, b, c] by
two different algorithms.

``g_uvv_closed`` forms 3-5 and ``gbar_uvv_closed`` forms 1-3 share
``_t_extraction``, [t^n] (1 + at)^(-divisions) (1 + at + kt^2)^(n+1)
(1 - bt)^(-(n+1)) with no division for G and two for Gbar, each a running
pass over the rows of the middle factor's terms; each of its three
expansion orders is its own term list, so the forms stay three summations
(g form 3 and gbar form 1 share code but meet different oracles).  Its last
factor binom(n+m, m) has m >= 0, so ``math.comb`` serves.  Forms 1-2 take
j <= min(k, n - k), so n - k - j >= 0 and their binom(n+k-j, 2k) has top
>= lower index >= 0 and is at least 1: ``math.comb`` serves there too, and
only ``f_closed`` keeps ``binom``.  Every entry point raises ``ValueError``
for a length n that is a bool, not an int, or negative, and for an unknown
form.
"""

from __future__ import annotations

from math import comb, factorial

from .paths import _check_length
from .polyring import ONE, VAR_A, VAR_B, VAR_C, ZERO, Monomial, Polynomial


def binom(m: int, r: int) -> int:
    """Generalized binomial: m(m-1)...(m-r+1)/r! for r > 0, 1 at r = 0, 0 for r < 0.

    Raises ``ValueError`` unless m and r are ints that are no bools."""
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (m, r)):
        raise ValueError(f"binom takes two ints, not {m!r} and {r!r}")
    if r < 0:
        return 0
    if r == 0:
        return 1
    if m >= 0:
        return comb(m, r) if m >= r else 0
    num = 1
    for t in range(r):
        num *= m - t
    return num // factorial(r)


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n)/(n + 1)."""
    _check_length(n)
    return comb(2 * n, n) // (n + 1)


def _from_k_basis(sums: dict[Monomial, int]) -> Polynomial:
    """The sum of coeff * a^ea * b^eb * k^j over the (ea, eb, j) keys of sums,
    with k = c - b^2, by one Taylor shift per group of keys.

    With s = eb + 2j and y = c/b^2, a^ea b^eb k^j = a^ea b^s (y - 1)^j.  So
    the keys sharing (ea, s) form one polynomial p(y) = p_0 + ... + p_d y^d,
    and their sum is a^ea b^s p(y - 1).  Repeated synthetic division by
    y + 1 writes p(y) = sum_i q_i (y + 1)^i in place: pass i = 0..d-1 runs
    k = d-1 down to i with p_k -= p_(k+1) and leaves the remainder q_i at
    index i, d(d+1)/2 subtractions in all.  So p(y - 1) = sum_i q_i y^i, and
    q_i y^i is q_i a^ea b^(s-2i) c^i.  That exponent of b is at least the eb
    of the group's key with j = d, so never negative, and distinct (ea, s, i)
    give distinct monomials.  The keys need not be homogeneous, and their
    coefficients may be zero."""
    groups: dict[tuple[int, int], list[int]] = {}
    for (ea, eb, j), coeff in sums.items():
        p = groups.setdefault((ea, eb + 2 * j), [])
        if len(p) <= j:
            p.extend([0] * (j + 1 - len(p)))
        p[j] += coeff
    acc: dict[Monomial, int] = {}
    for (ea, s), p in groups.items():
        d = len(p) - 1
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                p[k] -= p[k + 1]
        for i, q in enumerate(p):
            acc[ea, s - 2 * i, i] = q
    return Polynomial(acc)


def _t_extraction(n: int, order: int, divisions: int) -> dict[Monomial, int]:
    """[t^n] (1 + at)^(-divisions) (1 + at + kt^2)^(n+1) (1 - bt)^(-(n+1)),
    keyed (ea, eb, j) for a^ea b^eb k^j; expansion order 1, 2 or 3 expands
    the middle factor into terms (e, j, coeff) standing for coeff a^e k^j
    t^(e+2j), once per call.

    Each term adds its coeff into row j at index e, so the middle factor is
    the sum of k^j t^(2j) x_j(at) with x_j(z) = sum_e x_(j,e) z^e.  Dividing
    by 1 + at divides every x_j by 1 + z: one running pass x_e -= x_(e-1),
    e ascending.  Then [t^n] keeps from k^j t^(2j) x_(j,e) (at)^e only b^m
    t^m, m = n - e - 2j, of (1 - bt)^(-(n+1)) = sum_m binom(n+m, m) b^m t^m.
    So each row is needed for e <= n - 2j alone, the index its terms stop
    at, and each (e, j) is multiplied by binom(n+m, m) once, after the
    divisions.  Two divisions give gbar_uvv_closed's shift sum, since
    1/(1 + z)^2 = sum_i (-1)^i (i + 1) z^i."""
    if order == 1:
        terms = [(e, j, comb(n + 1, j) * comb(n + 1 - j, e))
                 for j in range(n // 2 + 1) for e in range(n - 2 * j + 1)]
    elif order == 2:
        terms = [(e, j, comb(n + 1, e) * comb(n + 1 - e, j))
                 for e in range(n + 1) for j in range((n - e) // 2 + 1)]
    else:
        terms = [(p - j, j, comb(n + 1, p) * comb(p, j))
                 for p in range(n + 1) for j in range(min(p, n - p) + 1)]
    rows = [[0] * (n - 2 * j + 1) for j in range(n // 2 + 1)]
    for e, j, coeff in terms:
        rows[j][e] += coeff
    tails = [comb(n + m, m) for m in range(n + 1)]
    sums: dict[Monomial, int] = {}
    for j, x in enumerate(rows):
        for _ in range(divisions):
            for e in range(1, len(x)):
                x[e] -= x[e - 1]
        for e, v in enumerate(x):
            m = n - e - 2 * j
            sums[e, m, j] = v * tails[m]
    return sums


def _check_form(form: int, count: int) -> None:
    if isinstance(form, bool) or not isinstance(form, int) or not 1 <= form <= count:
        raise ValueError(f"unknown form {form!r}, expected 1..{count}")


def dyck_weight(n: int) -> Polynomial:
    """C_n(a,b) as a polynomial (Narayana refinement of the Catalan numbers)."""
    _check_length(n)
    terms = {(k, n - k, 0): comb(n, k - 1) * comb(n, k) for k in range(1, n + 1)}
    return Polynomial(terms).div_exact(n) if n else ONE


def motzkin_weight(n: int) -> Polynomial:
    """M_n(a,b) = sum binom(n, 2k) C_k a^(n-2k) b^k."""
    _check_length(n)
    return Polynomial(
        {(n - 2 * k, k, 0): comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1)}
    )


def schroder_weight(n: int) -> Polynomial:
    """S_n(a,b) = sum binom(n+k, 2k) C_k a^(n-k) b^k."""
    _check_length(n)
    return Polynomial(
        {(n - k, k, 0): comb(n + k, 2 * k) * catalan(k) for k in range(n + 1)}
    )


def g_uvv_closed(n: int, form: int) -> Polynomial:
    """G_n^uvv(a,b,c) by one of five equivalent coefficient extractions.

    Forms 1 and 2 expand 1/(1-ax) C(x(b + (c-b^2)x)/(1-ax)^2) directly;
    form 1 leaves the (c - b^2) powers to ``_from_k_basis``, and form 2
    expands them term by term with signed binomial rows.  Forms
    3 to 5 come from coefficient extraction in the series T = x G^uvv via
    its defining equation T (1 - bT) = x (1 + aT + (c - b^2) T^2), reading
    [t^n] (1 + at + (c-b^2)t^2)^(n+1) (1 - bt)^(-(n+1)) in the three
    expansion orders of ``_t_extraction``, each divided by n + 1.
    """
    _check_length(n)
    _check_form(form, 5)
    if form >= 3:
        return _from_k_basis(_t_extraction(n, form - 2, 0)).div_exact(n + 1)
    catalans = [catalan(k) for k in range(n + 1)]
    signed_rows = [[(-1) ** (j - i) * comb(j, i) for i in range(j + 1)]
                   for j in range(n // 2 + 1)] if form == 2 else []
    sums: dict[Monomial, int] = {}
    for k in range(n + 1):
        for j in range(min(k, n - k) + 1):
            ea = n - k - j
            coeff = catalans[k] * comb(k, j) * comb(n + k - j, 2 * k)
            if form == 1:
                sums[ea, k - j, j] = coeff
            else:
                for i, r in enumerate(signed_rows[j]):
                    key = (ea, k + j - 2 * i, i)
                    sums[key] = sums.get(key, 0) + coeff * r
    return _from_k_basis(sums) if form == 1 else Polynomial(sums)


def gbar_uvv_closed(n: int, form: int) -> Polynomial:
    """Gbar_n^uvv(a,b,c) by one of three equivalent extractions.

    Form f is ``g_uvv_closed`` form f + 2 with the extra factor 1/(1 + at)^2:
    the alternating shift sum over i >= 0 of (-1)^i (i + 1) a^i [t^(n-i)],
    which ``_t_extraction`` in expansion order f takes as two running
    divisions by 1 + at of each row of its terms, O(n^2) steps in all.
    The whole sum is divided by n + 1 at the end.
    """
    _check_length(n)
    _check_form(form, 3)
    return _from_k_basis(_t_extraction(n, form, 2)).div_exact(n + 1)


def relation_checks(n: int) -> dict[str, bool]:
    """Exact polynomial identities tying the classical weight families together.

    For n >= 1 verifies S_n(a,b) = C_n(a+b,b) and S_n(a,b) =
    (a+b) M_{n-1}(a+2b, (a+b)b), from the closed forms alone.  Substitutions
    into two variables at once go through the unused variable c so only
    single-variable substitution is ever needed.  The identity
    G_n^uvu(a,b,b^2) = S_n(a,b), which needs the enumeration oracle, is
    checked by ``verify``'s weight-relations criterion.
    """
    _check_length(n)
    if n < 1:
        raise ValueError("relations hold for n >= 1")
    s = schroder_weight(n)
    c_shift = dyck_weight(n).substitute("a", VAR_A + VAR_B)
    m = motzkin_weight(n - 1).substitute("b", VAR_C)
    m = m.substitute("a", VAR_A + VAR_B.scaled(2))
    m = m.substitute("c", (VAR_A + VAR_B) * VAR_B)
    m = (VAR_A + VAR_B) * m
    return {
        "schroder_eq_shifted_dyck": s == c_shift,
        "schroder_eq_shifted_motzkin": s == m,
    }


def specialization_checks(n: int, g: Polynomial) -> dict[str, bool]:
    """The specialization table's polynomial rows at n, by label, for g the
    caller's G_n^uvv; ValueError names a g that is no Polynomial."""
    if not isinstance(g, Polynomial):
        raise ValueError(f"specialization_checks takes a Polynomial G_n^uvv, not {g!r}")
    return {
        "(a,0,b) Motzkin polynomial":
            g.substitute("b", ZERO).substitute("c", VAR_B) == motzkin_weight(n),
        "(a,b,b^2) Schroeder polynomial":
            g.substitute("c", VAR_B * VAR_B) == schroder_weight(n),
    }


def f_closed(n: int) -> int:
    """Number of fixed points of sigma, by the explicit triple sum."""
    _check_length(n)
    total = 0
    for k in range(n + 1):
        ck = catalan(k)
        for j in range((n - k) // 2 + 1):
            b1 = comb(2 * k + j, j)
            for i in range(j + 1):
                total += (
                    (-1) ** (n - k - i)
                    * b1
                    * comb(j, i)
                    * binom(n - j - i - 2, n - k - 2 * j - i)
                    * 3 ** (j - i)
                    * ck
                )
    return total


def fixed_point_sequences(nmax: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """(F, a, b, c) sequences for lengths 0..nmax from the joint recurrences.

    F satisfies the convolution F_{n+1} = F_n + 2 F_{n-1} + sum a_k F_{n-k}
    (k = 1..n) with F_0 = 1, F_1 = 2; the class-A counts are recovered from
    F_n = a_n + 2 a_{n-1} + a_{n-2} (n >= 4) with seeds a_0..a_4 =
    1, 1, 2, 7, 23.  The class-B and class-C counts follow as
    b_n = a_{n-1} + c_{n-1} (n >= 1, b_0 = 0) and c_n = a_{n-1} (n >= 3,
    c_0 = c_1 = 0, c_2 = 2).
    """
    _check_length(nmax)
    f = [1, 2]
    a = [1, 1, 2, 7, 23]
    for m in range(1, nmax + 1):
        if m == len(a):
            a.append(f[m] - 2 * a[m - 1] - a[m - 2])
        f.append(f[m] + 2 * f[m - 1] + sum(a[k] * f[m - k] for k in range(1, m + 1)))
    f, a = f[: nmax + 1], a[: nmax + 1]
    c = [0, 0, 2][: nmax + 1] + a[2:nmax]
    b = [0] + [a[m] + c[m] for m in range(nmax)]
    return f, a, b, c
