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

Several alternative summation forms are provided for the same quantity
(``g_uvv_closed`` has five, ``gbar_uvv_closed`` three); they arise from
expanding the same coefficient extraction in different orders and must
agree exactly.

Each closed-form sum except ``g_uvv_closed`` form 2 is taken in the basis
a, b, k with k = c - b^2: its terms accumulate in a dict keyed (ea, eb, j),
which stands for a^ea b^eb k^j, and ``_from_k_basis`` then expands each
distinct power k^j into Z[a, b, c] once.  Form 2 still expands every
(c - b^2)^j term by term, so forms 1 and 2 stay two different computations
of the same sum.  Every entry point raises ``ValueError`` for a length n
that is a bool, not an int, or negative, and for an unknown form.
"""

from __future__ import annotations

from math import comb, factorial

from .polyring import ONE, VAR_A, VAR_B, VAR_C, Monomial, Polynomial


def binom(m: int, r: int) -> int:
    """Generalized binomial: m(m-1)...(m-r+1)/r! for r > 0, 1 at r = 0, 0 for r < 0."""
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


def _add_term(acc: dict[Monomial, int], ea: int, eb: int, ec: int, coeff: int) -> None:
    if coeff:
        key = (ea, eb, ec)
        s = acc.get(key, 0) + coeff
        if s:
            acc[key] = s
        else:
            del acc[key]


def _from_k_basis(sums: dict[Monomial, int]) -> Polynomial:
    """The sum of coeff * a^ea * b^eb * k^j over the (ea, eb, j) keys of sums,
    with k = c - b^2 expanded into the ring once for each distinct j."""
    acc: dict[Monomial, int] = {}
    rows: dict[int, list[int]] = {}
    for (ea, eb, j), coeff in sums.items():
        if not coeff:
            continue
        row = rows.get(j)
        if row is None:
            row = rows[j] = [(-1) ** (j - i) * comb(j, i) for i in range(j + 1)]
        eb += 2 * j
        for i, r in enumerate(row):
            key = (ea, eb - 2 * i, i)
            acc[key] = acc.get(key, 0) + coeff * r
    return Polynomial(acc)


def _check_length(n: int) -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"length n must be an int, not {n!r}")
    if n < 0:
        raise ValueError("length must be nonnegative")


def _check_form(form: int, count: int) -> None:
    if isinstance(form, bool) or not isinstance(form, int) or not 1 <= form <= count:
        raise ValueError(f"unknown form {form!r}, expected 1..{count}")


def dyck_weight(n: int) -> Polynomial:
    """C_n(a,b) as a polynomial (Narayana refinement of the Catalan numbers)."""
    _check_length(n)
    if n == 0:
        return ONE
    acc: dict[Monomial, int] = {}
    for k in range(1, n + 1):
        narayana, rem = divmod(comb(n, k - 1) * comb(n, k), n)
        assert rem == 0
        _add_term(acc, k, n - k, 0, narayana)
    return Polynomial(acc)


def motzkin_weight(n: int) -> Polynomial:
    """M_n(a,b) = sum binom(n, 2k) C_k a^(n-2k) b^k."""
    _check_length(n)
    acc: dict[Monomial, int] = {}
    for k in range(n // 2 + 1):
        _add_term(acc, n - 2 * k, k, 0, comb(n, 2 * k) * catalan(k))
    return Polynomial(acc)


def schroder_weight(n: int) -> Polynomial:
    """S_n(a,b) = sum binom(n+k, 2k) C_k a^(n-k) b^k."""
    _check_length(n)
    acc: dict[Monomial, int] = {}
    for k in range(n + 1):
        _add_term(acc, n - k, k, 0, comb(n + k, 2 * k) * catalan(k))
    return Polynomial(acc)


def g_uvv_closed(n: int, form: int) -> Polynomial:
    """G_n^uvv(a,b,c) by one of five equivalent coefficient extractions.

    Forms 1 and 2 expand 1/(1-ax) C(x(b + (c-b^2)x)/(1-ax)^2) directly;
    form 2 additionally expands the (c - b^2) powers term by term.  Forms
    3 to 5 come from coefficient extraction in the series T = x G^uvv via
    its defining equation T (1 - bT) = x (1 + aT + (c - b^2) T^2), reading
    the product (1 + at + (c-b^2)t^2)^(n+1) (1 - bt)^(-(n+1)) in three
    different expansion orders, each divided by n + 1.
    """
    _check_length(n)
    _check_form(form, 5)
    sums: dict[Monomial, int] = {}
    if form in (1, 2):
        acc: dict[Monomial, int] = {}
        for k in range(n + 1):
            ck = catalan(k)
            for j in range(k + 1):
                ea = n - k - j
                if ea < 0:
                    continue
                coeff = ck * comb(k, j) * binom(n + k - j, 2 * k)
                if not coeff:
                    continue
                if form == 1:
                    key = (ea, k - j, j)
                    sums[key] = sums.get(key, 0) + coeff
                else:
                    for i in range(j + 1):
                        _add_term(
                            acc, ea, k + j - 2 * i, i,
                            coeff * comb(j, i) * (-1) ** (j - i),
                        )
        return _from_k_basis(sums) if form == 1 else Polynomial(acc)
    if form == 3:
        for k in range(n // 2 + 1):
            for j in range(n - 2 * k + 1):
                coeff = (
                    comb(n + 1, k)
                    * comb(n + 1 - k, j)
                    * binom(2 * n - 2 * k - j, n - 2 * k - j)
                )
                key = (j, n - 2 * k - j, k)
                sums[key] = sums.get(key, 0) + coeff
    elif form == 4:
        for k in range(n + 1):
            for j in range((n - k) // 2 + 1):
                coeff = (
                    comb(n + 1, k)
                    * comb(n + 1 - k, j)
                    * binom(2 * n - k - 2 * j, n - k - 2 * j)
                )
                key = (k, n - k - 2 * j, j)
                sums[key] = sums.get(key, 0) + coeff
    else:
        for k in range(n + 1):
            for j in range(min(k, n - k) + 1):
                coeff = (
                    comb(n + 1, k)
                    * comb(k, j)
                    * binom(2 * n - k - j, n - k - j)
                )
                key = (k - j, n - k - j, j)
                sums[key] = sums.get(key, 0) + coeff
    return _from_k_basis(sums).div_exact(n + 1)


def gbar_uvv_closed(n: int, form: int) -> Polynomial:
    """Gbar_n^uvv(a,b,c) by one of three equivalent extractions.

    Compared with g_uvv_closed forms 3..5, each carries an extra outer
    alternating sum from the factor 1/(1 + at)^2 with weight
    (-1)^i (i + 1), shifting the remaining coefficient extraction down by
    i.  The whole sum is divided by n + 1 at the end.
    """
    _check_length(n)
    _check_form(form, 3)
    sums: dict[Monomial, int] = {}
    for i in range(n + 2):
        sign = (-1) ** i * (i + 1)
        if form == 1:
            for k in range(n // 2 + 1):
                for j in range(n - 2 * k + 1):
                    m = n - i - 2 * k - j
                    if m < 0:
                        continue
                    coeff = (
                        sign
                        * comb(n + 1, k)
                        * comb(n + 1 - k, j)
                        * binom(2 * n - i - 2 * k - j, m)
                    )
                    key = (i + j, m, k)
                    sums[key] = sums.get(key, 0) + coeff
        elif form == 2:
            for k in range(n + 1):
                for j in range((n - k) // 2 + 1):
                    m = n - i - k - 2 * j
                    if m < 0:
                        continue
                    coeff = (
                        sign
                        * comb(n + 1, k)
                        * comb(n + 1 - k, j)
                        * binom(2 * n - i - k - 2 * j, m)
                    )
                    key = (i + k, m, j)
                    sums[key] = sums.get(key, 0) + coeff
        else:
            for k in range(n + 1):
                for j in range(k + 1):
                    m = n - i - k - j
                    if m < 0:
                        continue
                    coeff = (
                        sign
                        * comb(n + 1, k)
                        * comb(k, j)
                        * binom(2 * n - i - k - j, m)
                    )
                    key = (i + k - j, m, j)
                    sums[key] = sums.get(key, 0) + coeff
    return _from_k_basis(sums).div_exact(n + 1)


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
    for m in range(1, nmax):
        if m >= len(a):
            a.append(f[m] - 2 * a[m - 1] - a[m - 2])
        f.append(f[m] + 2 * f[m - 1] + sum(a[k] * f[m - k] for k in range(1, m + 1)))
    while len(a) < nmax + 1:
        m = len(a)
        a.append(f[m] - 2 * a[m - 1] - a[m - 2])
    f = f[: nmax + 1]
    a = a[: nmax + 1]
    c = [0, 0] + [2 if m == 2 else a[m - 1] for m in range(2, nmax + 1)]
    c = c[: nmax + 1]
    b = [0] + [a[m - 1] + c[m - 1] for m in range(1, nmax + 1)]
    return f, a, b[: nmax + 1], c


def f_recurrence(n: int) -> int:
    """Number of fixed points of sigma, by unrolling the recurrences."""
    _check_length(n)
    return fixed_point_sequences(n)[0][n]
