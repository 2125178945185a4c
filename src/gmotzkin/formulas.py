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

This module is the one home of the specialization table, which the
``tables`` command prints and ``verify``'s criterion 7 checks.  Its point
rows, ``SPECIALIZATION_POINTS``, are the points (a, b, c) at which G_n^uvv
gives the Catalan, Motzkin, large Schroeder, A025235 and A059231 numbers.
``relation_checks`` and ``specialization_checks`` test identities between
the closed forms and return them by label; the second holds the table's
polynomial rows, G_n^uvv(a,0,b) = M_n(a,b) and G_n^uvv(a,b,b^2) = S_n(a,b).

Several alternative summation forms are provided for the same quantity
(``g_uvv_closed`` has five, ``gbar_uvv_closed`` three) and must agree
exactly.  Forms 1-2 of ``g_uvv_closed`` expand 1/(1-ax) C(...) and form 3
the extraction from T = x G^uvv: those are the independent expansions.
``g_uvv_closed`` forms 3-5, and likewise ``gbar_uvv_closed`` forms 1-3,
sum the same multinomial terms (n+1)!/(e! j! (n+1-e-j)!) of
(1 + at + kt^2)^(n+1) in three enumeration orders, each binomially
factorised its own way, so their agreement checks the loop bounds and the
factorisations, not the algebra.

Each closed-form sum is homogeneous of degree n, with a and b of degree 1
and c (and k) of degree 2, so a term is fixed by its powers of a and c (or
k): the power of b is what remains of n.  So every sum is carried as rows
by the power of a, a list per ea = 0..n indexed j = 0..(n - ea)//2, from
the loop that makes its terms to the polynomial, which ``_of_rows`` builds
once: entry i of row ea is the coefficient of a^ea b^(n-ea-2i) c^i.
Except in ``g_uvv_closed`` form 2, the sum is taken in the basis a, b, k
with k = c - b^2: rows[ea][j] stands for a^ea b^(n-ea-2j) k^j, and
``_from_k_basis`` maps the rows into Z[a, b, c] by one Taylor shift
y -> y - 1 per row.  Form 2 still expands every (c - b^2)^j term by term
by signed binomial rows, into a per-ea accumulator that is already in
Z[a, b, c], so forms 1 and 2 reach Z[a, b, c] by two different
algorithms.

``g_uvv_closed`` forms 3-5 and ``gbar_uvv_closed`` forms 1-3 share
``_t_extraction``, [t^n] (1 + at)^(-divisions) (1 + at + kt^2)^(n+1)
(1 - bt)^(-(n+1)) / (n + 1) with no division by 1 + at for G and two for
Gbar, each a running pass along the rows of the middle factor's terms.
Each of its three expansion orders is its own loop, with its own binomial
factorisation, adding each term into its row as it makes it, so the forms
stay three summations (g form 3 and gbar form 1 share code but meet
different oracles).  Lagrange inversion's factor 1/(n + 1) is divided out
of the integer rows, exactly or by ``ValueError``, before the Taylor
shift, which is unimodular over Z and so keeps divisibility.  The last
factor's binom(n+m, m) has m >= 0, so ``math.comb`` serves.  Forms 1-2
take j <= min(k, n - k), so n - k - j >= 0 and their binom(n+k-j, 2k) has
top >= lower index >= 0 and is at least 1: ``math.comb`` serves there
too.  ``binom`` serves ``f_closed`` and the division-free Narayana numbers
of ``dyck_weight``, whose lower index reaches -1.
Every entry point raises ``ValueError`` for a length n that is a bool, not
an int, or negative, and for an unknown form.
"""

from __future__ import annotations

from math import comb, factorial

from .paths import _check_length
from .polyring import ONE, VAR_A, VAR_B, VAR_C, ZERO, Polynomial


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


def _of_rows(rows: list[list[int]], n: int) -> Polynomial:
    """The homogeneous sum of degree n over ea and i of
    rows[ea][i] * a^ea * b^(n-ea-2i) * c^i, each row holding at most
    (n - ea)//2 + 1 entries, so every exponent of b is nonnegative; distinct
    (ea, i) give distinct monomials, so the terms are built once, zeros
    dropped."""
    return Polynomial._of({(ea, n - ea - 2 * i, i): q for ea, row in enumerate(rows)
                           for i, q in enumerate(row) if q})


def _from_k_basis(rows: list[list[int]], n: int) -> Polynomial:
    """The homogeneous sum of degree n over ea and j of
    rows[ea][j] * a^ea * b^(n-ea-2j) * k^j, with k = c - b^2, by one Taylor
    shift per row; each rows[ea] has at most (n - ea)//2 + 1 entries and is
    overwritten.

    A term of degree n is fixed by its exponents of a and k, since its
    exponent of b is what remains of n.  With y = c/b^2,
    a^ea b^(n-ea-2j) k^j = a^ea b^(n-ea) (y - 1)^j, so one row is one
    polynomial p(y) = p_0 + ... + p_d y^d, and its sum is
    a^ea b^(n-ea) p(y - 1).  Repeated synthetic division by y + 1 writes
    p(y) = sum_i q_i (y + 1)^i in place: pass i = 0..d-1 runs k = d-1 down
    to i with p_k -= p_(k+1) and leaves the remainder q_i at index i,
    d(d+1)/2 subtractions in all.  So p(y - 1) = sum_i q_i y^i, and q_i y^i
    is q_i a^ea b^(n-ea-2i) c^i: the shifted rows are ``_of_rows``' rows."""
    for p in rows:
        d = len(p) - 1
        for i in range(d):
            for k in range(d - 1, i - 1, -1):
                p[k] -= p[k + 1]
    return _of_rows(rows, n)


def _t_extraction(n: int, order: int, divisions: int) -> list[list[int]]:
    """[t^n] (1 + at)^(-divisions) (1 + at + kt^2)^(n+1) (1 - bt)^(-(n+1)),
    divided by n + 1, as rows by the power of a: rows[e][j] is the
    coefficient of a^e b^(n-e-2j) k^j, for e = 0..n and j = 0..(n-e)//2,
    the rows that ``_from_k_basis`` reads.  Expansion order 1, 2 or 3
    expands the middle factor's terms coeff a^e k^j t^(e+2j) in its own
    loop order and binomial factorisation, and adds each into rows[e][j] as
    it makes it.

    So the middle factor is the sum of k^j t^(2j) x_j(at) with
    x_j(z) = sum_e rows[e][j] z^e.  Dividing by 1 + at divides every x_j by
    1 + z: one running pass x_(j,e) -= x_(j,e-1), e ascending, which takes
    row e - 1 from row e entry by entry.  Then [t^n] keeps from
    k^j t^(2j) x_(j,e) (at)^e only b^m t^m, m = n - e - 2j, of
    (1 - bt)^(-(n+1)) = sum_m binom(n+m, m) b^m t^m.  So x_j is needed for
    e <= n - 2j alone, the index its terms stop at, and each (e, j) is
    multiplied by binom(n+m, m) once, after the divisions.  Two divisions
    give gbar_uvv_closed's shift sum, since
    1/(1 + z)^2 = sum_i (-1)^i (i + 1) z^i.

    Lagrange inversion puts the factor 1/(n + 1) in front of [t^n], and
    each entry is divided by it here, in the basis a, b, k.  The Taylor
    shift that takes a row into Z[a, b, c] is unimodular over Z (its
    inverse y -> y + 1 has integer coefficients too), so every entry is
    divisible by n + 1 exactly when every coefficient in Z[a, b, c] is;
    an entry that is not raises ``ValueError``, naming it and n + 1."""
    rows = [[0] * ((n - e) // 2 + 1) for e in range(n + 1)]
    if order == 1:
        for j in range(n // 2 + 1):
            cj = comb(n + 1, j)
            for e in range(n - 2 * j + 1):
                rows[e][j] += cj * comb(n + 1 - j, e)
    elif order == 2:
        for e, row in enumerate(rows):
            ce = comb(n + 1, e)
            for j in range(len(row)):
                row[j] += ce * comb(n + 1 - e, j)
    else:
        for p in range(n + 1):
            cp = comb(n + 1, p)
            for j in range(min(p, n - p) + 1):
                rows[p - j][j] += cp * comb(p, j)
    for _ in range(divisions):
        for e in range(1, n + 1):
            rows[e] = [x - y for x, y in zip(rows[e], rows[e - 1])]
    tails = [comb(n + m, m) for m in range(n + 1)]
    for e, row in enumerate(rows):
        for j, t in enumerate(tails[n - e::-2]):
            q, r = divmod(row[j] * t, n + 1)
            if r:
                raise ValueError(f"coefficient {row[j] * t} of a^{e} b^{n - e - 2 * j} k^{j}"
                                 f" is not divisible by n + 1 = {n + 1}")
            row[j] = q
    return rows


def _check_form(form: int, count: int) -> None:
    if isinstance(form, bool) or not isinstance(form, int) or not 1 <= form <= count:
        raise ValueError(f"unknown form {form!r}, expected 1..{count}")


def dyck_weight(n: int) -> Polynomial:
    """C_n(a,b) = sum_k N(n,k) a^k b^(n-k), by the Narayana numbers
    N(n,k) = binom(n,k) binom(n,k-1)/n, which refine the Catalan numbers,
    taken with no division as
    N(n,k) = binom(n-1,k-1)^2 - binom(n-1,k) binom(n-1,k-2), k = 1..n.

    With m = n - 1, binom(m,k) = binom(m,k-1) (m-k+1)/k and
    binom(m,k-2) = binom(m,k-1) (k-1)/(m-k+2), so the right side is
    binom(m,k-1)^2 (k(m-k+2) - (m-k+1)(k-1)) / (k(m-k+2)), whose bracket
    is m + 1 = n: binom(m,k-1)^2 n / (k(n-k+1)).  And
    binom(n,k) = binom(m,k-1) n/k, binom(n,k-1) = binom(m,k-1) n/(n-k+1),
    so the left side is the same.  The ratios hold at the ends too:
    ``binom`` gives binom(m,-1) = 0 at k = 1 and binom(m,n) = 0 at k = n,
    where k - 1 and m - k + 1 vanish.  C_0 = 1."""
    _check_length(n)
    m = n - 1
    return Polynomial._of({(k, n - k, 0): binom(m, k - 1) ** 2 - binom(m, k) * binom(m, k - 2)
                           for k in range(1, n + 1)}) if n else ONE


def motzkin_weight(n: int) -> Polynomial:
    """M_n(a,b) = sum binom(n, 2k) C_k a^(n-2k) b^k."""
    _check_length(n)
    return Polynomial._of(
        {(n - 2 * k, k, 0): comb(n, 2 * k) * catalan(k) for k in range(n // 2 + 1)}
    )


def schroder_weight(n: int) -> Polynomial:
    """S_n(a,b) = sum binom(n+k, 2k) C_k a^(n-k) b^k."""
    _check_length(n)
    return Polynomial._of(
        {(n - k, k, 0): comb(n + k, 2 * k) * catalan(k) for k in range(n + 1)}
    )


def g_uvv_closed(n: int, form: int) -> Polynomial:
    """G_n^uvv(a,b,c) by one of five equivalent coefficient extractions.

    Forms 1 and 2 expand 1/(1-ax) C(x(b + (c-b^2)x)/(1-ax)^2) directly,
    with terms C_k binom(k, j) binom(n+k-j, 2k) a^(n-k-j) b^(k-j) (c-b^2)^j;
    the power of a fixes k + j, so each term is one row entry.  Form 1
    writes it into rows[n - k - j][j] and leaves the (c - b^2) powers to
    ``_from_k_basis``.  Form 2 expands them term by term with signed
    binomial rows, adding coeff * r into entry i of row n - k - j, the
    coefficient of a^(n-k-j) b^(k+j-2i) c^i, so its rows go straight to
    ``_of_rows`` with no Taylor shift; row n - k - j has j + 1 entries or
    more, since j <= (n - (n - k - j))//2.  Forms 3 to 5 come from
    coefficient extraction in the series T = x G^uvv via its defining
    equation T (1 - bT) = x (1 + aT + (c - b^2) T^2): by Lagrange inversion
    G_n^uvv = [t^n] (1 + at + (c-b^2)t^2)^(n+1) (1 - bt)^(-(n+1)) / (n + 1),
    which ``_t_extraction`` reads in its three expansion orders, dividing by
    n + 1 in the basis a, b, k, and ``_from_k_basis`` shifts into Z[a, b, c].
    """
    _check_length(n)
    _check_form(form, 5)
    if form >= 3:
        return _from_k_basis(_t_extraction(n, form - 2, 0), n)
    catalans = [catalan(k) for k in range(n + 1)]
    signed_rows = [[(-1) ** (j - i) * comb(j, i) for i in range(j + 1)]
                   for j in range(n // 2 + 1)] if form == 2 else []
    rows = [[0] * ((n - ea) // 2 + 1) for ea in range(n + 1)]
    for k in range(n + 1):
        for j in range(min(k, n - k) + 1):
            coeff = catalans[k] * comb(k, j) * comb(n + k - j, 2 * k)
            row = rows[n - k - j]
            if form == 1:
                row[j] = coeff
            else:
                for i, r in enumerate(signed_rows[j]):
                    row[i] += coeff * r
    if form == 1:
        return _from_k_basis(rows, n)
    return _of_rows(rows, n)


def gbar_uvv_closed(n: int, form: int) -> Polynomial:
    """Gbar_n^uvv(a,b,c) by one of three equivalent extractions.

    Form f is ``g_uvv_closed`` form f + 2 with the extra factor 1/(1 + at)^2:
    the alternating shift sum over i >= 0 of (-1)^i (i + 1) a^i [t^(n-i)],
    which ``_t_extraction`` in expansion order f takes as two running
    divisions by 1 + at along its rows by the power of a, O(n^2) steps in
    all, and divides every entry by n + 1 before ``_from_k_basis`` maps
    the rows into Z[a, b, c].
    """
    _check_length(n)
    _check_form(form, 3)
    return _from_k_basis(_t_extraction(n, form, 2), n)


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


SPECIALIZATION_POINTS = [
    # (label, (a, b, c), OEIS id printed as a display label only)
    ("(0,1,1)", (0, 1, 1), "A000108"),
    ("(1,0,1)", (1, 0, 1), "A001006"),
    ("(1,1,1)", (1, 1, 1), "A006318"),
    ("(1,0,2)", (1, 0, 2), "A025235"),
    ("(-3,4,16)", (-3, 4, 16), "A059231"),
]


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
