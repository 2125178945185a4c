"""The ``queries`` workload: a seeded stream of independent single calls.

The stream stands for an interactive user who sends one request, waits for
the answer and then sends the next (a closed loop of one client).  Nothing
records how the package is really used, so the mix is synthetic and
unverified.  It follows one fixed rule instead of being tuned: each of the
eight kinds of request listed below gets PER_KIND calls, over a fixed grid
of sizes and output formats, so that two seeds ask for the same amount of
work.  ``count``, ``series``, ``fixed-points`` and ``render`` go through
``cli.main``, as they are commands that print; ``sigma`` and ``sigma_inv``
go half through the library and half through ``cli.main``; the closed forms
have no command and are library calls.

The seed picks the path words and the evaluation points.  The order of the
stream is one fixed shuffle, the same for every seed: the order decides
which call meets a cold cache, and with an order drawn from the seed the
95th percentile moved between seeds by more than the median did.

Random paths are built one step at a time from the steps that keep the
pattern avoided and the path completable, so no word is ever rejected and
drawn again.  Each word is validated with ``parse_word`` and a pattern test
before it enters the stream; the program under test then receives only the
words.

``build`` also computes, once per stream, the expected answer of every
request whose answer does not depend on a path word, each by a route
independent of the one the request takes.  ``run`` executes one request
inside its timed region; ``check`` verifies the answer after the last timed
request, against that expectation or, for ``sigma``, ``sigma_inv`` and
``render``, by the answer's own invariants.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter

# Step weights for the random walk: u has the weight of d and v together,
# so heights drift neither up nor down and paths nest about sqrt(n) deep.
_STEP_WEIGHTS = (("u", 2), ("d", 1), ("h", 1), ("v", 1))
_RISE = {"u": 1, "d": -1, "h": 0, "v": -1}

PER_KIND = 32
STREAM_ORDER = 0  # seed of the one fixed order of the stream
# x-lengths for sigma and sigma_inv: words of about 12 to 260 steps, well
# below the nesting depth at which the recursive sigma overflows the stack.
# Even positions of the grid are library calls, odd ones CLI calls.
_SIGMA_LENGTHS = tuple(range(10, 197, 6))
_COUNT_CLASSES = ("uvv", "gbar", "uvu", "all")
_COUNT_LENGTHS = (2, 3, 4, 5)
# (generating function, orders): low orders, as a user exploring the series.
# G_uvu stays low because its coefficients are checked against enumeration.
_SERIES_GRID = (
    ("G_uvv", (4, 8, 12, 16)),
    ("G", (3, 6, 9, 12)),
    ("G_uvu", (3, 5, 6, 7)),
    ("T", (4, 8, 12, 16)),
    ("Gbar_uvv", (3, 6, 9, 12)),
    ("C", (8, 16, 24, 32)),
    ("F", (8, 16, 24, 32)),
    ("A", (8, 16, 24, 32)),
)
# fixed-points at n = 0..7, with and without --list, each asked twice: n = 8
# alone takes most of a second.
_FIXED_POINT_LENGTHS = tuple(range(0, 8))
_RENDER_LENGTHS = tuple(range(5, 81, 5))


def _completable(avoid: str, rem: int, height: int, tail: str) -> bool:
    """Whether a path in this state can still end at height 0.

    d steps never complete a forbidden pattern, and v steps after a d never
    complete uvv, so only a uvv-avoiding state with no x-length left and a
    trailing u or uv can be stuck.
    """
    if avoid == "uvu" or height == 0 or rem > 0:
        return True
    if tail.endswith("uv"):
        return False
    return not (tail.endswith("u") and height >= 2)


def random_path(rng: random.Random, n: int, avoid: str) -> str:
    """A random path of x-length n avoiding ``avoid``, built without rejection."""
    steps: list[str] = []
    rem, height = n, 0
    while rem or height:
        tail = "".join(steps[-2:])
        choices, weights = [], []
        for step, weight in _STEP_WEIGHTS:
            new_rem, new_height = rem - (step != "v"), height + _RISE[step]
            if new_rem < 0 or new_height < 0 or (tail + step).endswith(avoid):
                continue
            if _completable(avoid, new_rem, new_height, (tail + step)[-2:]):
                choices.append(step)
                weights.append(weight)
        step = rng.choices(choices, weights)[0]
        steps.append(step)
        rem, height = rem - (step != "v"), height + _RISE[step]
    return "".join(steps)


def _point(rng: random.Random, square_c: bool) -> list[int]:
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    return [a, b, b * b if square_c else rng.randint(-3, 3)]


def _printed(poly, mode: str, point) -> str:
    """A polynomial as ``gmotzkin count`` and ``series`` print it."""
    if mode == "eval":
        return str(poly.eval(*point))
    if mode == "json":
        return json.dumps(poly.to_json_obj(), separators=(",", ":"))
    return str(poly)


def _closed_class(gm, cls: str, n: int):
    """A class polynomial from the closed forms; uvu only under c = b^2."""
    b2 = gm.polyring.VAR_B * gm.polyring.VAR_B
    if cls == "gbar":
        return gm.formulas.gbar_uvv_closed(n, 1)
    g = gm.formulas.g_uvv_closed(n, 1)
    if cls == "all":
        return g.substitute("c", b2 + gm.polyring.VAR_C)
    if cls == "uvu":
        return g.substitute("c", b2)
    return g


def _series_reference(gm, gf: str, order: int) -> list:
    """Coefficients 0..order of one generating function, by another route."""
    const = gm.polyring.Polynomial.const
    if gf in ("G_uvv", "G", "Gbar_uvv"):
        cls = {"G_uvv": "uvv", "G": "all", "Gbar_uvv": "gbar"}[gf]
        return [_closed_class(gm, cls, n) for n in range(order + 1)]
    if gf == "T":
        return [gm.polyring.ZERO] + [_closed_class(gm, "uvv", n) for n in range(order)]
    if gf == "G_uvu":
        uvu = gm.enumeration.Constraints(avoid=("uvu",))
        return [gm.enumeration.weight_sum(n, uvu) for n in range(order + 1)]
    if gf == "C":
        return [const(math.comb(2 * n, n) // (n + 1)) for n in range(order + 1)]
    if gf == "F":
        return [const(gm.formulas.f_closed(n)) for n in range(order + 1)]
    if gf == "A":
        return [const(a) for a in gm.formulas.fixed_point_sequences(order)[1]]
    raise ValueError(f"no reference for {gf}")


def _large_schroder(n: int) -> int:
    """Large Schroeder numbers by (m+1) S_m = 3(2m-1) S_{m-1} - (m-2) S_{m-2}."""
    s = [1, 2]
    for m in range(2, n + 1):
        s.append((3 * (2 * m - 1) * s[m - 1] - (m - 2) * s[m - 2]) // (m + 1))
    return s[n]


def build(seed: int, gm) -> list[dict]:
    """The request stream for one seed, with the expected answers."""
    rng = random.Random(seed)
    out: list[dict] = []

    def word(n: int, avoid: str) -> str:
        w = random_path(rng, n, avoid)
        if gm.paths.parse_word(w) != w or avoid in w or sum(ch != "v" for ch in w) != n:
            raise ValueError(f"generated word {w!r} is not an {avoid}-avoiding path of length {n}")
        return w

    def cli(op: str, argv: list[str], expect) -> None:
        out.append({"op": op, "via": "cli", "argv": argv, "expect": expect})

    for i, n in enumerate(_SIGMA_LENGTHS):
        for op, avoid in (("sigma", "uvv"), ("sigma_inv", "uvu")):
            out.append({"op": op, "via": ("lib", "cli")[i % 2], "word": word(n, avoid)})
    for cls in _COUNT_CLASSES:
        for n in _COUNT_LENGTHS:
            # The closed forms give the uvu class only under c = b^2, so it is
            # asked for at such points only.
            modes = ("eval", "eval") if cls == "uvu" else (("text", "json")[n % 2], "eval")
            expected = _closed_class(gm, cls, n)
            for mode in modes:
                argv = ["count", "--n", str(n)]
                if cls != "all":
                    argv += ["--avoid", "uvu" if cls == "uvu" else "uvv"]
                if cls == "gbar":
                    argv.append("--no-h-on-axis")
                point = _point(rng, square_c=cls == "uvu") if mode == "eval" else None
                argv += ["--eval=" + ",".join(map(str, point))] if point else ["--format", mode]
                cli("count", argv, _printed(expected, mode, point))
    for g, (gf, orders) in enumerate(_SERIES_GRID):
        for k, order in enumerate(orders):
            mode = ("text", "json", "eval")[(g + k) % 3]
            point = _point(rng, square_c=False) if mode == "eval" else None
            argv = ["series", "--gf", gf, "--order", str(order)]
            argv += ["--eval=" + ",".join(map(str, point))] if point else ["--format", mode]
            lines = [_printed(p, mode, point) for p in _series_reference(gm, gf, order)]
            cli("series", argv, "\n".join(lines))
    for i in range(PER_KIND):
        n, form = 2 * i, i % 5 + 1
        other = gm.formulas.g_uvv_closed(n, form % 5 + 1)
        out.append({"op": "g_uvv_closed", "via": "lib", "n": n, "form": form,
                    "expect": other.to_json_obj()})
    for i in range(PER_KIND):
        n, form = i, i % 3 + 1
        other = gm.formulas.gbar_uvv_closed(n, form % 3 + 1)
        out.append({"op": "gbar_uvv_closed", "via": "lib", "n": n, "form": form,
                    "expect": other.to_json_obj()})
    for n in _FIXED_POINT_LENGTHS:
        _, a_seq, b_seq, c_seq = gm.formulas.fixed_point_sequences(n)
        head = f"F={gm.formulas.f_closed(n)} a={a_seq[n]} b={b_seq[n]} c={c_seq[n]}"
        for listed in (False, True, False, True):
            argv = ["fixed-points", "--n", str(n)] + (["--list"] if listed else [])
            cli("fixed_points", argv, head)
    for i, n in enumerate(_RENDER_LENGTHS):
        for fmt in ("text", "svg"):
            w = word(n, ("uvv", "uvu")[i % 2])
            out.append({"op": "render", "via": "cli", "word": w, "fmt": fmt,
                        "argv": ["render", "--path", w, "--format", fmt]})
    kinds = Counter(q["op"] for q in out)
    if set(kinds.values()) != {PER_KIND}:
        raise ValueError(f"the stream breaks its rule of {PER_KIND} calls a kind: {kinds}")
    random.Random(STREAM_ORDER).shuffle(out)
    return out


def run(gm, query: dict):
    """Execute one request; returns what the user would see."""
    op = query["op"]
    if query["via"] == "cli":
        argv = query.get("argv") or [op.replace("_", "-"), "--path", query["word"]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = gm.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()
    if op == "sigma":
        return gm.bijection.sigma(query["word"])
    if op == "sigma_inv":
        return gm.bijection.sigma_inv(query["word"])
    if op == "g_uvv_closed":
        return gm.formulas.g_uvv_closed(query["n"], query["form"])
    if op == "gbar_uvv_closed":
        return gm.formulas.gbar_uvv_closed(query["n"], query["form"])
    raise ValueError(f"unknown request {op!r}")


def check(gm, query: dict, answer) -> str | None:
    """None if ``answer`` is right, else a message naming what disagreed."""
    if query["via"] == "cli":
        code, stdout, stderr = answer
        if code != 0:
            return f"{query['argv']}: exit {code}: {stderr.strip()[:200]}"
        answer = stdout[:-1] if stdout.endswith("\n") else stdout
    return _CHECKS[query["op"]](gm, query, answer)


def _steps(word: str) -> tuple[int, int]:
    return word.count("h"), word.count("v") + 2 * word.count("d")


def _check_sigma(gm, q: dict, image: str) -> str | None:
    word = q["word"]
    if "uvu" in image:
        return f"sigma({word}) = {image} contains uvu"
    if _steps(image) != _steps(word):
        return f"sigma({word}) = {image} changes #h or #v + 2#d"
    if gm.bijection.sigma_inv(image) != word:
        return f"sigma_inv(sigma({word})) != {word}"
    return None


def _check_sigma_inv(gm, q: dict, pre: str) -> str | None:
    word = q["word"]
    if "uvv" in pre:
        return f"sigma_inv({word}) = {pre} contains uvv"
    if _steps(pre) != _steps(word):
        return f"sigma_inv({word}) = {pre} changes #h or #v + 2#d"
    if gm.bijection.sigma(pre) != word:
        return f"sigma(sigma_inv({word})) != {word}"
    return None


def _check_printed(gm, q: dict, text: str) -> str | None:
    if text != q["expect"]:
        return f"{q['argv']}: printed {text[:120]!r}, expected {q['expect'][:120]!r}"
    return None


def _check_g_uvv(gm, q: dict, poly) -> str | None:
    n, form = q["n"], q["form"]
    if poly.to_json_obj() != q["expect"]:
        return f"g_uvv_closed({n}, {form}) != form {form % 5 + 1}"
    if poly.eval(1, 1, 1) != _large_schroder(n):
        return f"g_uvv_closed({n}, {form}) at (1,1,1) is not the Schroeder number"
    if poly.eval(0, 1, 1) != math.comb(2 * n, n) // (n + 1):
        return f"g_uvv_closed({n}, {form}) at (0,1,1) is not the Catalan number"
    return None


def _check_gbar(gm, q: dict, poly) -> str | None:
    if poly.to_json_obj() != q["expect"]:
        return f"gbar_uvv_closed({q['n']}, {q['form']}) != form {q['form'] % 3 + 1}"
    return None


def _check_fixed_points(gm, q: dict, text: str) -> str | None:
    head, *listed = text.split("\n")
    if head != q["expect"]:
        return f"{q['argv']}: {head!r}, expected {q['expect']!r}"
    if "--list" in q["argv"]:
        n, f = int(q["argv"][2]), int(head.split()[0][2:])
        if len(listed) != f or len(set(listed)) != f:
            return f"{q['argv']}: {len(listed)} paths listed, F = {f}"
        for w in listed:
            if "uvv" in w or sum(ch != "v" for ch in w) != n:
                return f"{q['argv']}: {w!r} is not in the uvv-avoiding class"
    return None


_GLYPH = {"u": "/", "d": "\\", "h": "_", "v": "|"}


def _check_render(gm, q: dict, text: str) -> str | None:
    word = q["word"]
    if q["fmt"] == "svg":
        ok = (
            text.startswith("<svg ")
            and text.endswith("</svg>")
            and text.count("<line ") == len(word)
            and text.count("<circle ") == len(word) + 1
        )
        return None if ok else f"render svg of {word}: wrong element counts"
    rows = text.split("\n")
    for col, step in enumerate(word):
        marks = [row[col] for row in rows if col < len(row) and row[col] != " "]
        if marks != [_GLYPH[step]]:
            return f"render text of {word}: column {col} shows {marks}"
    if any(len(row) > len(word) for row in rows):
        return f"render text of {word}: a row is wider than the path"
    return None


_CHECKS = {
    "sigma": _check_sigma,
    "sigma_inv": _check_sigma_inv,
    "count": _check_printed,
    "series": _check_printed,
    "g_uvv_closed": _check_g_uvv,
    "gbar_uvv_closed": _check_gbar,
    "fixed_points": _check_fixed_points,
    "render": _check_render,
}
