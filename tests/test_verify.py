"""Every way ``Harness.sweep`` can reject sigma, reached by patching the bijection.

The sweep is the exhaustive proof that sigma is a bijection onto the
uvu-avoiding class; each test breaks one property that proof relies on and
checks that the sweep names it.  The sweep maps through the one-pass cores
``bijection._sigma`` and ``_sigma_inv``, so its fault tests patch those, and
a patch that wraps a real map wraps a core: the public ``sigma`` calls the
patched core, and wrapping it would recurse.  The fault rows at n = 8 run the sweep in
one process and, on a host with two or three CPUs, in two and in three
children, and expect the same detail and no child left behind; the shards'
own streams are checked in one process, at up to four shards.  The job
runner that spreads every criterion's walks over the children is held to
its bound on live children, however a call ends.  The series relations of
criterion 9 are broken the same way, by patching one row of
``series._EQUATIONS``, and its decomposition checks by patching the records
that the decompositions return; every other failure detail of the criteria
is reached by patching one route.
A check that raises must fail its own criterion and leave the others to run,
and the harness must refuse bounds that are no nonnegative int.
"""

import itertools
import os
import pickle
import signal
import threading
from collections import Counter

import pytest

from gmotzkin import bijection, cli, enumeration, formulas, series, verify
from gmotzkin.enumeration import AVOID_UVU, AVOID_UVV, BAR_UVV, NO_CONSTRAINTS
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

real_sigma = bijection._sigma
real_sigma_inv = bijection._sigma_inv
real_generate = verify.generate
real_expand = verify.expand


def test_sweep_passes_on_the_real_bijection():
    rec = Harness(max_n=3).sweep(3)
    assert rec.error is None
    assert rec._fields == ("a", "b", "c", "error")
    assert (rec.a, rec.b, rec.c) == (7, 4, 2)


def test_image_with_uvu(monkeypatch):
    monkeypatch.setattr(bijection, "_sigma", lambda q: "uvuv")
    assert Harness().sweep(1).error == "sigma(uv) = uvuv contains uvu"


def test_weight_change(monkeypatch):
    monkeypatch.setattr(bijection, "_sigma", lambda q: real_sigma(q) + "h")
    assert Harness().sweep(1).error == "sigma(uv) = uvh changes the weight"


def test_round_trip_failure(monkeypatch):
    monkeypatch.setattr(bijection, "_sigma_inv", lambda p: real_sigma_inv(p) + "h")
    assert Harness().sweep(1).error == "sigma_inv(sigma(uv)) = uvh"


def test_image_outside_the_class(monkeypatch):
    # "u" + image keeps the weight and round-trips, but is not a path.
    monkeypatch.setattr(bijection, "_sigma", lambda q: "u" + real_sigma(q))
    monkeypatch.setattr(bijection, "_sigma_inv", lambda p: real_sigma_inv(p[1:]))
    error = Harness().sweep(1).error
    assert error == "sigma(uv) = uuv outside the uvu-avoiding class"


def test_image_below_the_axis(monkeypatch):
    # The reversed image keeps its steps, so its weight and x-length, but
    # "vu" starts with a drop below the axis; sigma_inv would raise on it,
    # so the sweep must test membership before the round trip.
    monkeypatch.setattr(bijection, "_sigma", lambda q: real_sigma(q)[::-1])
    error = Harness().sweep(1).error
    assert error == "sigma(uv) = vu outside the uvu-avoiding class"


def test_image_with_a_character_outside_the_alphabet(monkeypatch):
    # "xv" has the weight and the x-length of "uv", but x is no step.
    monkeypatch.setattr(bijection, "_sigma", lambda q: real_sigma(q).replace("u", "x"))
    monkeypatch.setattr(
        bijection, "_sigma_inv", lambda p: real_sigma_inv(p.replace("x", "u"))
    )
    error = Harness().sweep(1).error
    assert error == "sigma(uv) = xv outside the uvu-avoiding class"


def is_path(word):
    """Whether ``_unmatched``, the sweep's path test, leaves nothing of
    ``word``."""
    return verify._unmatched(word) == ""


@pytest.mark.parametrize("n", range(9))
def test_is_path_is_the_heights_definition(n):
    # min over the running heights is 0 and the last is 0; words with an x
    # are no paths, wherever the x stands
    for steps in itertools.product("udhv", repeat=n):
        word = "".join(steps)
        hs = _heights(word)
        assert is_path(word) is (min(hs) == 0 == hs[-1]), word
        for i in range(n + 1):
            assert is_path(word[:i] + "x" + word[i:]) is False


def image_failure(q, p, n):
    """What the sweep names for p as the image of the path q of length n,
    by its tests in order up to the round trip, or None: the reference,
    one path at a time, that the chunk's tests are held to.  The path test
    is the heights definition, and the weight test counts the steps:
    ``generate`` yields q with x-length n = #h + #v + 2#d."""
    if not set(p) <= set("udhv") or min(_heights(p)) < 0 or _heights(p)[-1]:
        return "outside the uvu-avoiding class"
    if "uvu" in p:
        return "contains uvu"
    h = q.count("h")
    if p.count("h") != h or p.count("v") + 2 * p.count("d") != n - h:
        return "changes the weight"
    return None


def reference(chunk, images, n):
    """The images before the first pair of ``chunk`` and ``images`` that
    fails ``image_failure``, and the sweep's text for it, or None."""
    for i, (q, p) in enumerate(zip(chunk, images)):
        what = image_failure(q, p, n)
        if what:
            return images[:i], f"sigma({q}) = {p} {what}"
    return images, None


def check_chunk(chunk, images, n):
    """``_check_chunk`` of ``chunk``, with a sigma that gives ``images`` and
    a sigma_inv that gives ``chunk`` back, each position by position."""
    ps, qs = iter(images), iter(chunk)
    return verify._check_chunk(chunk, n, lambda _: next(ps), lambda _: next(qs))


@pytest.fixture(scope="module")
def filter_words():
    """Every word of up to five letters over the steps, the parentheses that
    the path test turns them into, a letter that is no step, and the
    newline that joins the images of a chunk; and every word of six steps,
    so that every image of x-length 3 is among them."""
    letters = {k: "udhv()x\n" for k in range(6)} | {6: "udhv"}
    return ["".join(w) for k, alphabet in letters.items() for w in itertools.product(alphabet, repeat=k)]


WORD_ROWS = [("", 0), ("h", 1), ("uv", 1), ("uhv", 2), ("uudv", 3)]


@pytest.mark.parametrize(
    "chunk,images,n,ok",
    [
        # each word of ``filter_words`` as the image of the one path q
        *[([q], None, n, None) for q, n in WORD_ROWS],
        (["ud", "uhv", "hh"], ["ud", "huv", "hh"], 2, True),
        # a path, each, only when joined to its neighbour
        (["uhv", "uhv"], ["uhvu", "hv"], 2, False),
        (["uv", "uv"], ["uuv", "v"], 1, False),
        # a newline in an image, alone and beside a path
        (["uv", "uv"], ["uv\n", "uv"], 1, False),
        (["uv", "uv"], ["uv", "u\nv"], 1, False),
        (["hh", "hh"], ["h\nh", "hh"], 2, False),
        (["uv", "uv", "uv"], ["uv", "u\nv", "uv"], 1, False),
        # parentheses that balance within an image or across the newline
        (["uv"], ["(uv)"], 1, False),
        (["uv", "uv"], ["uv(", ")uv"], 1, False),
        (["hh", "hh"], ["h(h", "h)h"], 2, False),
        # the one failure last in a chunk
        (["ud", "hh", "uhv"], ["ud", "hh", "vhu"], 2, False),
        # a character that is neither a step, a parenthesis nor a newline
        (["uhv", "hh"], ["uhv", "héh"], 2, False),
        # len - #v is n, with q's h, but #v + 2#d is not n - #h: no path
        (["uv", "uv", "uv"], ["uv", "u", "uv"], 1, False),
        (["ud", "uhv", "hh"], ["ud", "uhvvv", "hh"], 2, False),
    ],
    ids=[
        *[f"every word as sigma({q})" for q, _ in WORD_ROWS],
        "paths",
        "joined uhvu hv",
        "joined uuv v",
        "newline after",
        "newline inside",
        "newline between hs",
        "newline mid-chunk",
        "(uv)",
        "( ) across",
        "( ) across hs",
        "below last",
        "non-ASCII",
        "len - v is n, u",
        "len - v is n, uhvvv",
    ],
)
def test_images_pass_on_a_chunk_is_every_pair_passing(filter_words, chunk, images, n, ok):
    # the chunk's first failure, its index and text, is the reference's
    if images is None:
        results = [(check_chunk(chunk, [p], n), reference(chunk, [p], n)) for p in filter_words]
        assert [got for got, want in results if got != want] == []
        assert any(error is None for (_, error), _ in results)
    else:
        assert check_chunk(chunk, images, n) == reference(chunk, images, n)
        assert (reference(chunk, images, n)[1] is None) is ok


def test_sweep_walks_the_uvv_class_once_and_the_uvu_class_never(monkeypatch):
    # the class size is S_n(1,1), which criterion 8 proves, so criteria 4
    # and 6 walk each uvv-avoiding class once and compute no weight sum,
    # whose walks ``enumeration.generate`` would count too
    walks = Counter()

    def generate(n, constraints=None):
        walks[constraints, n] += 1
        return real_generate(n, constraints)

    monkeypatch.setattr(enumeration, "generate", generate)
    monkeypatch.setattr(verify, "generate", generate)
    harness = Harness(max_n=4)
    assert harness.criterion_4().ok
    assert walks == Counter({(AVOID_UVV, n): 1 for n in range(5)})
    assert harness.criterion_6().ok
    assert walks == Counter({(AVOID_UVV, n): 1 for n in range(5)})


@pytest.fixture(scope="module")
def walk_8():
    """The uvv-avoiding paths of length 8 in walk order, and sigma's image of
    each uvv-avoiding path of length <= 8 with its inverse: one walk and one
    sigma per path, shared by the fault tests below, which patch the cores
    ``_sigma`` and ``_sigma_inv`` as lookups in these tables."""
    walks = [list(real_generate(n, AVOID_UVV)) for n in range(9)]
    images = {q: real_sigma(q) for walk in walks for q in walk}
    return walks[8], images, {p: q for q, p in images.items()}


FAR = 1500  # a path of the second chunk of the walk at n = 8

# The CPU counts that the fault rows run the sweep at.  At one it runs
# in-process; at two, criterion 4's one call of the runner forks two
# children, and n = 7 and 8 each have two shards, the second of which maps
# the odd chunks, FAR's among them; at three, it forks three, and n = 8 has
# three shards, while n = 7, with nine chunks, still has two.  No test
# starts more children than there are CPUs, so a host with one runs the
# rows at one only.
CPU_COUNTS = (1, 2, 3)[: min(3, os.cpu_count() or 1)]
two_cpus = pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two shards need two CPUs")


def class_size(n):
    return formulas.schroder_weight(n).eval(1, 1, 1)


def criterion_4_at(monkeypatch, cpus):
    """``Harness(max_n=8).criterion_4()`` with the runner's CPUs patched to
    ``cpus``, checking that its one call forked a child per CPU, or none on
    one, and that no child is left once it returns."""
    real_fork = os.fork
    children = []

    def fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(verify, "_CPUS", cpus)
    monkeypatch.setattr(os, "fork", fork)
    result = Harness(max_n=8).criterion_4()
    assert len(children) == (cpus if cpus > 1 else 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return result


# Each fault of sigma at one path, as its image of that path q, whose true
# image is p.  h^8, the last path, has no weight-keeping image below the
# axis, so that fault takes the path before it.
IMAGE_FAULTS = {
    "uvu": lambda q, p: p + "uvuv",
    "uvu, no path": lambda q, p: p + "uvu",
    "weight": lambda q, p: p + "h",
    "below the axis": lambda q, p: p[::-1],
    "parentheses": lambda q, p: "(" + p + ")",
    "newline": lambda q, p: p[:1] + "\n" + p[1:],
    "non-ASCII": lambda q, p: p[:1] + "é" + p[1:],
    "raise": lambda q, p: raising_sigma(q),
    "two args": lambda q, p: raise_two_args(q),
}


class TwoArgs(Exception):
    """An exception whose ``__init__`` does not take its own ``args`` back,
    so that pickle could not rebuild it in another process: the detail of
    its raise must not depend on which process mapped the path."""

    def __init__(self, word, why):
        super().__init__(f"{why} at {word}")


def raise_two_args(q):
    raise TwoArgs(q, "bad")


# The details of criterion 4 for each fault at n = 8: those of a sweep that
# tests each image in turn, in the order of ``image_failure``.
FAULT_DETAILS = [
    ("uvu", FAR, "n=8: sigma(uuuuvdvvuvud) = uuuuvvvduudvuvuv contains uvu"),
    ("uvu", -1, "n=8: sigma(hhhhhhhh) = hhhhhhhhuvuv contains uvu"),
    ("uvu, no path", FAR, "n=8: sigma(uuuuvdvvuvud) = uuuuvvvduudvuvu outside the uvu-avoiding class"),
    ("weight", FAR, "n=8: sigma(uuuuvdvvuvud) = uuuuvvvduudvh changes the weight"),
    ("weight", -1, "n=8: sigma(hhhhhhhh) = hhhhhhhhh changes the weight"),
    ("below the axis", FAR, "n=8: sigma(uuuuvdvvuvud) = vduudvvvuuuu outside the uvu-avoiding class"),
    ("below the axis", -2, "n=8: sigma(hhhhhhhuv) = vuhhhhhhh outside the uvu-avoiding class"),
    ("parentheses", FAR, "n=8: sigma(uuuuvdvvuvud) = (uuuuvvvduudv) outside the uvu-avoiding class"),
    ("parentheses", -1, "n=8: sigma(hhhhhhhh) = (hhhhhhhh) outside the uvu-avoiding class"),
    ("newline", FAR, "n=8: sigma(uuuuvdvvuvud) = u\nuuuvvvduudv outside the uvu-avoiding class"),
    ("newline", -1, "n=8: sigma(hhhhhhhh) = h\nhhhhhhh outside the uvu-avoiding class"),
    ("non-ASCII", FAR, "n=8: sigma(uuuuvdvvuvud) = uéuuuvvvduudv outside the uvu-avoiding class"),
    ("raise", FAR, "n=8: AssertionError: a Case6 Q'' ends in uv in uuuuvdvvuvud"),
    ("raise", -1, "n=8: AssertionError: a Case6 Q'' ends in uv in hhhhhhhh"),
    ("two args", FAR, "n=8: TwoArgs: bad at uuuuvdvvuvud"),
]


@pytest.mark.parametrize(
    "fault,index,detail", FAULT_DETAILS, ids=[f"{fault}-{index}" for fault, index, _ in FAULT_DETAILS]
)
def test_sweep_names_a_fault_of_sigma_past_the_first_chunk(monkeypatch, walk_8, fault, index, detail):
    walk, images, inverse = walk_8
    bad = walk[index]
    monkeypatch.setattr(
        bijection, "_sigma", lambda q: IMAGE_FAULTS[fault](q, images[q]) if q == bad else images[q]
    )
    monkeypatch.setattr(bijection, "_sigma_inv", inverse.__getitem__)
    for cpus in CPU_COUNTS:
        assert criterion_4_at(monkeypatch, cpus) == ("bijection suite", False, detail)


@pytest.mark.parametrize(
    "index,detail",
    [
        (FAR, "n=8: sigma_inv(sigma(uuuuvdvvuvud)) = uuuuvdvvuvudh"),
        (-1, "n=8: sigma_inv(sigma(hhhhhhhh)) = hhhhhhhhh"),
    ],
    ids=["far", "last"],
)
def test_sweep_names_a_failed_round_trip_past_the_first_chunk(monkeypatch, walk_8, index, detail):
    walk, images, inverse = walk_8
    p = images[walk[index]]
    monkeypatch.setattr(bijection, "_sigma", images.__getitem__)
    monkeypatch.setattr(bijection, "_sigma_inv", lambda w: inverse[w] + "h" if w == p else inverse[w])
    for cpus in CPU_COUNTS:
        assert criterion_4_at(monkeypatch, cpus) == ("bijection suite", False, detail)


@pytest.mark.parametrize(
    "index,detail",
    [
        (FAR, "n=8: sigma(uuuuvdvvuvud) = uuuuvvvduudvh changes the weight"),
        (-2, "n=8: sigma(hhhhhhhuv) = hhhhhhhuvh changes the weight"),
    ],
    ids=["far", "last"],
)
def test_sweep_names_the_failure_before_a_later_raise_in_its_chunk(monkeypatch, walk_8, index, detail):
    # the path after the failing one raises, in the same chunk
    walk, images, inverse = walk_8
    failing, raising = walk[index], walk[index + 1]

    def sigma(q):
        if q == raising:
            raising_sigma(q)
        return images[q] + "h" if q == failing else images[q]

    monkeypatch.setattr(bijection, "_sigma", sigma)
    monkeypatch.setattr(bijection, "_sigma_inv", inverse.__getitem__)
    for cpus in CPU_COUNTS:
        assert criterion_4_at(monkeypatch, cpus) == ("bijection suite", False, detail)


@pytest.mark.parametrize(
    "failing,raising,detail",
    [
        (FAR, 2500, "n=8: sigma(uuuuvdvvuvud) = uuuuvvvduudvh changes the weight"),
        (2500, 3500, "n=8: sigma(uuuhuudvvvd) = uuhuuvdduvvh changes the weight"),
    ],
    ids=["child then parent", "parent then child"],
)
def test_sweep_names_the_least_of_faults_in_both_shards(monkeypatch, walk_8, failing, raising, detail):
    # a weight fault and, a chunk later in the other shard, a raise: at two
    # CPUs the child maps chunks 1 and 3 and the parent chunk 2
    walk, images, inverse = walk_8
    failing, raising = walk[failing], walk[raising]

    def sigma(q):
        if q == raising:
            raising_sigma(q)
        return images[q] + "h" if q == failing else images[q]

    monkeypatch.setattr(bijection, "_sigma", sigma)
    monkeypatch.setattr(bijection, "_sigma_inv", inverse.__getitem__)
    for cpus in CPU_COUNTS:
        assert criterion_4_at(monkeypatch, cpus) == ("bijection suite", False, detail)


def test_list_extend_keeps_the_items_before_a_raise():
    # CPython behaviour that ``_check_chunk`` reads: the images before the
    # path where sigma raised, so that a failure before it still wins
    items = []
    with pytest.raises(ZeroDivisionError):
        items.extend(map(lambda x: 6 // x, [1, 2, 0, 3]))
    assert items == [6, 3]


@pytest.mark.parametrize("raising", [None, FAR + 1], ids=["failure", "failure then raise"])
def test_a_failing_chunk_calls_sigma_once_per_path(walk_8, raising):
    # and none past a raise: the chunk is mapped once, and not again to
    # name its failure
    walk, images, inverse = walk_8
    chunk, calls = walk[verify._CHUNK : 2 * verify._CHUNK], Counter()

    def sigma(q):
        calls[q] += 1
        if raising and q == walk[raising]:
            raising_sigma(q)
        return images[q] + "h" if q == walk[FAR] else images[q]

    got = verify._check_chunk(chunk, 8, sigma, inverse.__getitem__)
    assert got == (
        [images[q] for q in walk[verify._CHUNK : FAR]],
        "sigma(uuuuvdvvuvud) = uuuuvvvduudvh changes the weight",
    )
    assert calls == Counter(chunk if raising is None else walk[verify._CHUNK : raising + 1])


def spy_runs(monkeypatch):
    """The labels of the jobs of each call of the runner that has jobs, in
    the order of the calls."""
    real_run = verify._run
    runs = []

    def run(jobs):
        if jobs:
            runs.append([label for _, label, _, _ in jobs])
        return real_run(jobs)

    monkeypatch.setattr(verify, "_run", run)
    return runs


def sweep_jobs(max_n):
    """The labels of the jobs of a sweep of n = 0..max_n in one call."""
    return [
        f"sweep shard {k} at n={n}" for n in range(max_n + 1) for k in range(verify._shards(class_size(n)))
    ]


def spy_counted(monkeypatch):
    """The lengths that ``bijection.fixed_points`` is called at, in order."""
    real_fixed_points = bijection.fixed_points
    counted = []

    def fixed_points(n):
        counted.append(n)
        return real_fixed_points(n)

    monkeypatch.setattr(bijection, "fixed_points", fixed_points)
    return counted


def test_criterion_6_reads_the_sweep_that_raised(monkeypatch, walk_8):
    # the raise is n = 8's cached failure: criterion 6 runs no job, and
    # counts the fixed points itself, only up to n = 7
    walk, images, inverse = walk_8
    monkeypatch.setattr(bijection, "_sigma", lambda q: raise_two_args(q) if q == walk[FAR] else images[q])
    monkeypatch.setattr(bijection, "_sigma_inv", inverse.__getitem__)
    monkeypatch.setattr(verify, "_CPUS", CPU_COUNTS[-1])
    runs, counted = spy_runs(monkeypatch), spy_counted(monkeypatch)
    harness = Harness(max_n=8)
    assert harness.criterion_4() == ("bijection suite", False, "n=8: TwoArgs: bad at uuuuvdvvuvud")
    assert runs == [sweep_jobs(8)]
    assert harness.criterion_6() == ("fixed points", False, "n=8: TwoArgs: bad at uuuuvdvvuvud")
    assert runs == [sweep_jobs(8)]
    assert counted == list(range(8))


def test_criterion_6_names_a_raise_of_fixed_points_on_every_cpu_count(monkeypatch):
    # the counts are taken in this process after each sweep passed, so a
    # raise at n = 7 is the criterion's failure, its type and message
    real_fixed_points = bijection.fixed_points
    monkeypatch.setattr(
        bijection, "fixed_points", lambda n: raise_two_args(f"n={n}") if n == 7 else real_fixed_points(n)
    )
    for cpus in CPU_COUNTS:
        monkeypatch.setattr(verify, "_CPUS", cpus)
        assert Harness(max_n=8).criterion_6() == ("fixed points", False, "TwoArgs: bad at n=7")


@two_cpus
def test_a_sharded_sweep_that_passes_leaves_no_child(monkeypatch):
    # the rows above leave none after a child's or the parent's own raise
    assert criterion_4_at(monkeypatch, 2) == ("bijection suite", True, "n = 0..8")


CHILD_ENDED = "n=8: ChildProcessError: the child running sweep shard 1 at n=8 ended before its last record"


@two_cpus
def test_a_child_that_ends_without_its_records_fails_the_sweep(monkeypatch, walk_8):
    # at two CPUs only: on one, the sweep maps FAR in this process
    walk, images, inverse = walk_8
    monkeypatch.setattr(bijection, "_sigma", lambda q: os._exit(1) if q == walk[FAR] else images[q])
    monkeypatch.setattr(bijection, "_sigma_inv", inverse.__getitem__)
    assert criterion_4_at(monkeypatch, 2) == ("bijection suite", False, CHILD_ENDED)


@two_cpus
def test_criterion_6_reads_the_sweep_whose_child_ended(monkeypatch, walk_8):
    # the child's end is n = 8's cached failure: criterion 6 starts no
    # second run of n = 8's sweep
    walk, images, inverse = walk_8
    monkeypatch.setattr(bijection, "_sigma", lambda q: os._exit(1) if q == walk[FAR] else images[q])
    monkeypatch.setattr(bijection, "_sigma_inv", inverse.__getitem__)
    monkeypatch.setattr(verify, "_CPUS", 2)
    runs, counted = spy_runs(monkeypatch), spy_counted(monkeypatch)
    harness = Harness(max_n=8)
    assert harness.criterion_4() == ("bijection suite", False, CHILD_ENDED)
    assert harness.criterion_6() == ("fixed points", False, CHILD_ENDED)
    assert runs == [sweep_jobs(8)]
    assert counted == list(range(8))


def test_the_sweep_forks_from_n_7_and_on_no_more_processes_than_cpus(monkeypatch):
    # _shards only counts processes, it starts none
    for cpus in (1, 2, 3, 8, 64, 10**6):
        monkeypatch.setattr(verify, "_CPUS", cpus)
        shards = [verify._shards(class_size(n)) for n in range(13)]
        assert shards[:7] == [1] * 7
        assert all(1 <= s <= cpus for s in shards)
        assert shards[7] == min(cpus, 2)
    monkeypatch.setattr(verify, "_CPUS", 2)
    assert [verify._shards(class_size(n)) for n in range(7, 13)] == [2] * 6


def test_the_sweep_forks_nothing_without_fork(monkeypatch):
    monkeypatch.setattr(verify, "_CPUS", 2)
    assert verify._shards(class_size(10)) == 2
    monkeypatch.delattr(os, "fork")
    assert verify._shards(class_size(10)) == 1


def test_the_sweep_forks_nothing_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(verify, "_CPUS", 2)
    assert verify._shards(class_size(10)) == 2
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert verify._shards(class_size(10)) == 1
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("handler", [signal.SIG_IGN, lambda signum, frame: None], ids=["ignored", "handled"])
def test_the_sweep_forks_nothing_unless_sigchld_is_at_its_default(monkeypatch, handler):
    # the kernel, or the handler, would reap a child before the merge kills
    # and waits for it; this starts no process
    monkeypatch.setattr(verify, "_CPUS", 2)
    assert verify._shards(class_size(10)) == 2
    default = signal.signal(signal.SIGCHLD, handler)
    try:
        assert verify._shards(class_size(10)) == 1
    finally:
        signal.signal(signal.SIGCHLD, default)
    assert verify._shards(class_size(10)) == 2


def count_children(monkeypatch):
    """Track this process's live children through ``os.fork`` and
    ``os.waitpid``; the list returned holds the most alive at once."""
    real_fork, real_waitpid = os.fork, os.waitpid
    live, most = set(), [0]

    def fork():
        pid = real_fork()
        if pid:
            live.add(pid)
            most[0] = max(most[0], len(live))
        return pid

    def waitpid(pid, options):
        reaped = real_waitpid(pid, options)
        live.discard(reaped[0])
        return reaped

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return most


def in_the_children(fault):
    """A patch that makes every job of the runner call ``fault`` when it
    runs in a child: the oracle's weight sums, the decompositions' walks
    and the sweep's chunks."""
    parent = os.getpid()

    def patch(monkeypatch):
        for module, name in (
            (verify, "weight_sum"),
            (verify, "_first_error"),
            (verify, "_check_chunk"),
        ):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, real=real: fault() if os.getpid() != parent else real(*args)
            )

    return patch


def raise_here(*args):
    raise RuntimeError("raised in this process")


# How a call of the runner ends: each patch below makes every criterion that
# forks fail, in this process or in its children.
ENDINGS = {
    "passes": lambda monkeypatch: None,
    "a raise in this process": lambda monkeypatch: monkeypatch.setattr(pickle, "load", raise_here),
    "a raise in a child": in_the_children(lambda: raising_sigma("a child")),
    "a child that exits": in_the_children(lambda: os._exit(1)),
}


@two_cpus
@pytest.mark.parametrize("ending", ENDINGS)
def test_the_runner_keeps_a_child_per_cpu_at_most_and_none_after(monkeypatch, ending):
    # at n = 7 each criterion that walks a class forks; the children are
    # counted from their fork to their reaping
    most = count_children(monkeypatch)
    ENDINGS[ending](monkeypatch)
    for cpus in CPU_COUNTS[1:]:
        monkeypatch.setattr(verify, "_CPUS", cpus)
        for k in (1, 4, 6, 8, 9):
            most[0] = 0
            result = getattr(Harness(max_n=7), f"criterion_{k}")()
            assert (k, result.ok, most[0]) == (k, ending == "passes", cpus)
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)


def test_the_verify_benchmark_job_forks_nothing(monkeypatch):
    # every job is at n <= 6, so each runs in this process, whatever the
    # CPUs; a fork would fail the test before it started a process
    monkeypatch.setattr(verify, "_CPUS", 3)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert all(r.ok for r in Harness(max_n=6, series_order=20).run_all())


def test_criterion_1_alone_runs_only_its_weight_sums(monkeypatch):
    runs = spy_runs(monkeypatch)
    assert Harness(max_n=3).criterion_1().ok
    assert runs == [[f"weight_sum({n}, {c})" for n in range(4) for c in (AVOID_UVV, BAR_UVV)]]


@pytest.fixture(scope="module")
def one_stream():
    """The stream of the sweep in one shard, at n = 7 and 8."""
    return {n: list(verify._shard(n, 0, 1)) for n in (7, 8)}


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [7, 8])
def test_the_shards_by_chunk_index_are_the_stream_of_one(one_stream, n, shards):
    # each shard in this process, so at more shards than the host has CPUs too
    whole = one_stream[n]
    streams = [list(verify._shard(n, k, shards)) for k in range(shards)]
    assert [streams[i % shards][i // shards] for i in range(len(whole))] == whole
    assert sum(map(len, streams)) == len(whole)


BAD_CHUNK = 5  # the chunk of the walk at n = 8 that holds the fault below


def shards_with_a_fault(monkeypatch, one_stream, shards, image):
    """Each shard's stream at n = 8 as the runner gives it in this process,
    with sigma patched to ``image`` at the eighth path of chunk
    ``BAD_CHUNK``, and the records of one stream."""
    bad = list(real_generate(8, AVOID_UVV))[BAD_CHUNK * verify._CHUNK + 7]
    monkeypatch.setattr(bijection, "_sigma", lambda q: image(q) if q == bad else real_sigma(q))
    monkeypatch.setattr(verify, "_CPUS", 1)
    jobs = [(8, f"sweep shard {k} at n=8", verify._shard, (8, k, shards)) for k in range(shards)]
    with verify._run(jobs) as streams:
        return [list(stream) for stream in streams], one_stream[8]


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_a_shard_ends_its_stream_with_the_exception_sigma_raised(monkeypatch, one_stream, shards):
    # the runner ends the shard's records with the exception's type and
    # message: a stream holds no exception object
    def image(q):
        raise AssertionError("sigma raised")

    streams, records = shards_with_a_fault(monkeypatch, one_stream, shards, image)
    for k, stream in enumerate(streams):
        if k == BAD_CHUNK % shards:
            assert stream == records[k:BAD_CHUNK:shards] + ["AssertionError: sigma raised"]
        else:
            assert stream == records[k::shards]


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_a_shard_stops_at_its_first_failure(monkeypatch, one_stream, shards):
    streams, records = shards_with_a_fault(monkeypatch, one_stream, shards, lambda q: real_sigma(q) + "h")
    for k, stream in enumerate(streams):
        if k == BAD_CHUNK % shards:
            *earlier, (mapped, _, error) = stream
            assert earlier == records[k:BAD_CHUNK:shards]
            assert (mapped, error.endswith("changes the weight")) == (7, True)
        else:
            assert stream == records[k::shards]


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
    monkeypatch.setattr(bijection, "_sigma", lambda q: swap.get(q, real_sigma(q)))
    monkeypatch.setattr(bijection, "_sigma_inv", lambda p: swap.get(p) or real_sigma_inv(p))
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
    monkeypatch.setattr(bijection, "_sigma", lambda q: real_sigma(q) + "h")
    result = Harness(max_n=2).criterion_4()
    assert not result.ok
    assert result.detail == "n=0: sigma() = h changes the weight"


def test_criterion_6_reports_the_sweep_error(monkeypatch):
    monkeypatch.setattr(bijection, "_sigma", lambda q: real_sigma(q) + "h")
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


def test_criterion_6_reads_the_counts_of_fixed_points_at_all_nmax(monkeypatch):
    # all_nmax, here 3, is the last length whose counts it reads
    real_fixed_points = bijection.fixed_points
    harness = Harness(max_n=3)

    def fixed_points(n):
        counts = real_fixed_points(n)
        return counts._replace(a=counts.a + 1) if n == harness.all_nmax else counts

    monkeypatch.setattr(bijection, "fixed_points", fixed_points)
    result = harness.criterion_6()
    assert (result.ok, result.detail) == (
        False,
        "n=3: {'brute force': 13, 'closed form': 13, 'recurrence': 13, 'series': 13, "
        "'fixed_points': 14, 'frozen table': 13}",
    )


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
real_t_extraction = formulas._t_extraction


def broken_extraction(order, divisions):
    """``formulas._t_extraction`` with b^2 added at n = 2 in expansion order
    ``order`` with ``divisions`` divisions alone: of the forms that criterion
    1 reads, this breaks only g_uvv form order + 2 (no division) or gbar_uvv
    form order (two divisions)."""

    def extraction(n, o, d):
        rows = real_t_extraction(n, o, d)
        if (n, o, d) == (2, order, divisions):
            rows[0][0] += 1
        return rows

    return extraction


# One failure detail of each check that no other test reaches: (criterion,
# max_n, patched module, patched name, replacement, detail).
FAILURE_DETAILS = {
    "closed form": (
        1, 1, verify, "weight_sum", lambda n, con: real_weight_sum(n, con) + ONE,
        "g_uvv form 1 at n=0: 1 != 2",
    ),
    # the last form of each closed form, so that criterion 1 reads them all
    "last g_uvv form": (
        1, 3, formulas, "_t_extraction", broken_extraction(3, 0),
        "g_uvv form 5 at n=2: a^2 + 3*a*b + 2*b^2 + c != a^2 + 3*a*b + b^2 + c",
    ),
    "last gbar_uvv form": (
        1, 3, formulas, "_t_extraction", broken_extraction(3, 2),
        "gbar_uvv form 3 at n=2: a*b + 2*b^2 + c != a*b + b^2 + c",
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
    # expansions one term short of x^(series_order + 1), here x^4
    "series stop": (
        3, 2, verify, "expand", lambda kind, order: PowerSeries(real_expand(kind, order).coeffs[:-1]),
        "series stop at x^3",
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
        7, 10, verify, "expand", perturbed_expand("G_uvv", 9, A), "n=9: (1, 0, 1) series",
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


@pytest.mark.parametrize(
    "term,detail",
    [
        # each term vanishes at every earlier point of the table, and not at
        # its own
        (ONE, "n=2: (0, 1, 1) series"),
        (A, "n=2: (1, 0, 1) series"),
        (A * B, "n=2: (1, 1, 1) series"),
        (C - ONE, "n=2: (1, 0, 2) series"),
        ((C - ONE) * (C - ONE - ONE), "n=2: (-3, 4, 16) series"),
    ],
    ids=["(0,1,1)", "(1,0,1)", "(1,1,1)", "(1,0,2)", "(-3,4,16)"],
)
def test_criterion_7_checks_each_point_of_the_table(monkeypatch, term, detail):
    monkeypatch.setattr(verify, "expand", perturbed_expand("G_uvv", 2, term))
    result = Harness(max_n=3, series_order=3).criterion_7()
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


B9 = Polynomial.monomial(0, 9, 0)


@pytest.mark.parametrize(
    "patch,max_n,series_order,failed",
    [
        # the Schroeder weights, whose value at (1, 1, 1) is the class size
        # of criterion 4's sweep: S_0 = 2, so the sweep's one image at n = 0
        # fails criteria 4 and 6
        (
            patched(formulas, "schroder_weight", lambda n: real_schroder_weight(n) + ONE), 1, 3,
            [("bijection suite", "n=0: image has 1 paths, class has 2"),
             ("fixed points", "n=0: image has 1 paths, class has 2"),
             ("specialization table", "n=0: (a,b,b^2) Schroeder polynomial"),
             ("weight relations", "n=1: schroder_eq_shifted_dyck")],
        ),
        # the oracle's uvu class, G_uvu_2 + a: criterion 4 reads the class
        # size as S_n(1,1), and criteria 2 and 8 hold the weight sums to the
        # series and to S_n(a,b)
        (
            patched(
                verify, "weight_sum",
                lambda n, con: real_weight_sum(n, con) + (A if (n, con) == (2, AVOID_UVU) else ZERO),
            ),
            2, 3,
            [("series vs oracle", "G_uvu coefficient 2 != oracle"),
             ("weight relations", "n=2: uvu_class_eq_schroder")],
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
             ("structural suite", "T relation fails at x^9 T^2")],
        ),
        (
            patched_row("T", 1, [B, C]), 6, 12,
            [("structural suite", "Gbar relation fails at x^2 T^2")],
        ),
        (
            patched_row("F", 0, [Polynomial.const(k) for k in (1, 3, 3, 1, 0, 0, 0, 0, 0, 1)]),
            6, 12,
            [("structural suite", "F vs A relation fails at x^9 A^0")],
        ),
    ],
    ids=[
        "Schroeder weight + 1",
        "oracle G_uvu_2 + a",
        "oracle G_2 + a",
        "G_uvv Q_9 = b^9",
        "T Q = b + cx",
        "F P = (1 + x)^3 + x^9",
    ],
)
def test_faults_of_the_dropped_rows_still_fail(monkeypatch, patch, max_n, series_order, failed):
    patch(monkeypatch)
    results = Harness(max_n=max_n, series_order=series_order).run_all()
    assert [(r.name, r.detail) for r in results if not r.ok] == failed


@pytest.mark.parametrize(
    "kind,entry,row,detail",
    [
        ("Gbar_uvv", 2, [ONE, -A], "Gbar relation fails at x^2 T^1"),
        ("T", 0, [ZERO, ONE, A], "Gbar relation fails at x^3 T^0"),
        ("G_uvv", 2, [ONE, -A, B], "T relation fails at x^3 T^1"),
        ("F", 1, [ZERO, ONE, ONE], "F vs A relation fails at x^2 A^2"),
        ("A", 2, [Polynomial.const(k) for k in (1, 1, -1, -2)], "F vs A relation fails at x^3 A^1"),
    ],
    ids=["Gbar_uvv D = 1 - ax", "T P = x + ax^2", "G_uvv D = 1 - ax + bx^2", "F Q = x + x^2", "A D_3 = -2"],
)
def test_criterion_9_names_the_relation_a_wrong_row_fails(monkeypatch, kind, entry, row, detail):
    # criterion 9 reads the rows, not their expansions, so a wrong row
    # fails it at any series order, here 0
    patched_row(kind, entry, row)(monkeypatch)
    result = Harness(max_n=0, series_order=0).criterion_9()
    assert (result.ok, result.detail) == (False, detail)


# The detail of each criterion of a passing Harness(max_n=3, series_order=8).
PASS_DETAILS = [
    ("closed forms vs oracle", "5 + 3 forms, n = 0..3"),
    ("series vs oracle", "4 kinds, n = 0..3"),
    ("substitution identities", "series order 8"),
    ("bijection suite", "n = 0..3"),
    ("sample bijection pair", "28-step input and image"),
    ("fixed points", "four-way agreement, n = 0..3"),
    ("specialization table", "7 rows, n = 0..3"),
    ("weight relations", "n = 1..3"),
    ("structural suite", "decompositions n <= 3, 3 relations on the rows"),
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


def test_the_default_bounds_are_the_stated_full_bounds():
    harness = Harness()
    assert (harness.avoid_nmax, harness.all_nmax, harness.series_order) == (10, 8, 30)


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
    # criterion 5 calls sigma itself; the sweep of criterion 4 would make
    # the raise its n's failure instead
    monkeypatch.setattr(bijection, "sigma", raising_sigma)
    result = Harness(max_n=2).criterion_5()
    assert (result.name, result.ok) == ("sample bijection pair", False)
    assert result.detail == f"AssertionError: a Case6 Q'' ends in uv in {verify.BIJECTION_SAMPLE_INPUT}"
    monkeypatch.undo()
    monkeypatch.setattr(verify, "expand", diverging_expand)
    result = Harness(max_n=2).criterion_3()
    assert (result.name, result.ok) == ("substitution identities", False)
    assert result.detail == "DivergenceError: G_uvv diverges"


@pytest.mark.parametrize(
    "target,name,replacement,failed",
    [
        (bijection, "_sigma", raising_sigma, ["bijection suite", "sample bijection pair", "fixed points"]),
        (
            verify,
            "expand",
            diverging_expand,
            [
                "series vs oracle",
                "substitution identities",
                "fixed points",
                "specialization table",
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
