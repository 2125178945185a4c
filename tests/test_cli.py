import json
import os
import subprocess
import sys

import pytest

import gmotzkin
from gmotzkin import cli, formulas
from gmotzkin.cli import main
from gmotzkin.verify import FIXED_POINT_COUNTS


def package_env():
    """The environment with the package's source directory on the path."""
    src = os.path.dirname(os.path.dirname(gmotzkin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def fresh_interpreter(*args):
    """Run this Python on args with the package's source directory on the path."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=package_env())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_sigma(self, capsys):
        code, out, _ = run(capsys, "sigma", "--path", "uudv")
        assert code == 0 and out == "uuvd\n"

    def test_sigma_inv(self, capsys):
        code, out, _ = run(capsys, "sigma-inv", "--path", "uuvd")
        assert code == 0 and out == "uudv\n"

    def test_sigma_accepts_whitespace_word(self, capsys):
        code, out, _ = run(capsys, "sigma", "--path", "u u d v")
        assert code == 0 and out == "uuvd\n"

    def test_count_eval(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--avoid", "uvv", "--eval", "1,1,1")
        assert code == 0 and out == "6\n"

    def test_count_negative_eval(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--avoid", "uvv", "--eval=-3,4,16")
        assert code == 0 and out == "5\n"

    def test_count_polynomial_text(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "2", "--avoid", "uvv")
        assert code == 0 and out == "a^2 + 3*a*b + b^2 + c\n"

    def test_count_polynomial_json(self, capsys):
        code, out, _ = run(capsys, "count", "--n", "1", "--format", "json")
        assert code == 0
        assert json.loads(out) == [
            {"ea": 1, "eb": 0, "ec": 0, "coeff": "1"},
            {"ea": 0, "eb": 1, "ec": 0, "coeff": "1"},
        ]

    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "1")
        assert code == 0 and out == "uv\nh\n"

    def test_enumerate_empty_path(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "0")
        assert code == 0 and out == "\n"

    def test_fixed_points(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--n", "2", "--list")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "F=5 a=2 b=1 c=2"
        assert lines[1:] == ["ud", "uhv", "uvh", "huv", "hh"]

    @pytest.mark.parametrize("n", range(8))
    def test_fixed_point_list_is_in_step_order(self, capsys, n):
        # The list comes in generation order, which is already sorted.
        code, out, _ = run(capsys, "fixed-points", "--n", str(n), "--list")
        words = out.splitlines()[1:]
        assert code == 0 and len(words) == FIXED_POINT_COUNTS[n]
        assert words == sorted(words, key=lambda w: ["udhv".index(ch) for ch in w])

    def test_series_eval(self, capsys):
        code, out, _ = run(capsys, "series", "--gf", "F", "--order", "5", "--eval", "0,0,0")
        assert code == 0 and out == "1\n2\n5\n13\n39\n125\n"

    def test_series_polynomials(self, capsys):
        code, out, _ = run(capsys, "series", "--gf", "G_uvv", "--order", "1")
        assert code == 0 and out == "1\na + b\n"

    def test_tables(self, capsys):
        code, out, _ = run(capsys, "tables", "--max-n", "5")
        assert code == 0
        assert "A006318: 1 2 6 22 90 394" in out
        assert "F_n: 1 2 5 13 39 125" in out

    def test_tables_labels_each_point_by_its_coordinates(self, capsys, monkeypatch):
        monkeypatch.setattr(formulas, "SPECIALIZATION_POINTS", [((1, 0, 3), "A000000")])
        code, out, _ = run(capsys, "tables", "--max-n", "2")
        assert code == 0
        assert "  (1,0,3)    A000000: 1 1 4" in out.splitlines()

    def test_render_svg(self, capsys):
        code, out, _ = run(capsys, "render", "--path", "uhv", "--format", "svg")
        assert code == 0
        assert out.count("<line") == 3


class TestErrorsAndDeterminism:
    def test_bad_word_exits_2(self, capsys):
        code, _, err = run(capsys, "sigma", "--path", "uxv")
        assert code == 2
        assert "illegal character 'x'" in err

    def test_pattern_violation_exits_2(self, capsys):
        code, _, err = run(capsys, "sigma", "--path", "uuvv")
        assert code == 2 and "uvv" in err

    def test_bad_pattern_token_exits_2(self, capsys):
        code, _, err = run(capsys, "count", "--n", "2", "--avoid", "uvv,zz")
        assert code == 2 and "'z'" in err

    @pytest.mark.parametrize("command", ["count", "enumerate"])
    @pytest.mark.parametrize("avoid", ["", "uvv,"])
    def test_empty_pattern_exits_2(self, capsys, command, avoid):
        code, out, err = run(capsys, command, "--n", "2", "--avoid", avoid)
        assert (code, out, err) == (2, "", "error: empty pattern\n")

    def test_order_past_sys_maxsize_exits_2(self, capsys):
        order = str(10**30)
        code, out, err = run(capsys, "series", "--gf", "G", "--order", order)
        assert (code, out) == (2, "")
        assert err == f"error: order must be at most sys.maxsize, not {order}\n"

    def test_order_whose_row_passes_sys_maxsize_exits_2(self, capsys):
        # G's row runs through x^(order + 1), one term past sys.maxsize
        code, out, err = run(capsys, "series", "--gf", "G", "--order", str(sys.maxsize))
        assert (code, out) == (2, "")
        message = f"order must be at most sys.maxsize - 2 for this row, not {sys.maxsize}"
        assert err == f"error: {message}\n"

    def test_max_n_past_sys_maxsize_exits_2(self, capsys):
        # refused before any row is computed, as count and series refuse n
        max_n = str(10**20)
        code, out, err = run(capsys, "tables", "--max-n", max_n)
        assert (code, out) == (2, "")
        assert err == f"error: --max-n must be at most sys.maxsize, not {max_n}\n"

    def test_verify_max_n_past_sys_maxsize_exits_2(self, capsys, monkeypatch):
        # refused before a Harness is built, let alone run
        def harness(**bounds):
            raise AssertionError(f"verify built a Harness with {bounds}")

        monkeypatch.setattr(cli.verify, "Harness", harness)
        max_n = str(10**20)
        code, out, err = run(capsys, "verify", "--max-n", max_n)
        assert (code, out) == (2, "")
        assert err == f"error: --max-n must be at most sys.maxsize, not {max_n}\n"

    def test_bad_eval_exits_2(self, capsys):
        code, _, err = run(capsys, "count", "--n", "2", "--eval", "1,2")
        assert code == 2 and "--eval" in err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--gf", "nope", "--order", "3"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, capsys):
        first = run(capsys, "tables", "--max-n", "6")
        second = run(capsys, "tables", "--max-n", "6")
        assert first == second


# One in-process sequence of main calls: a sigma and a sigma-inv call on the
# same word back to back, a usage error and a bad path between valid calls,
# --help, and sigma again, with the exit code each must give.  The calls must
# print what fresh parsers print and build one parser between them.
SEQUENCE = [
    (["sigma", "--path", "uudv"], 0),
    (["sigma-inv", "--path", "uudv"], 0),
    (["sigma", "--path"], 2),
    (["sigma", "--path", "uudv"], 0),
    (["sigma-inv", "--path", "uxdv"], 2),
    (["sigma-inv", "--path", "uudv"], 0),
    (["--help"], 0),
    (["sigma", "--path", "uudv"], 0),
]


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one ``main`` call, usage errors and
    --help included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def parser_builds(monkeypatch):
    """The calls of ``build_parser``, starting from no parser built."""
    calls = []
    build = cli.build_parser

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    yield calls
    cli._parser.cache_clear()


class TestParserReuse:
    def test_sequence_prints_what_fresh_parsers_print(self, capsys, monkeypatch, parser_builds):
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            fresh = [outcome(capsys, argv) for argv, _ in SEQUENCE]
        parser_builds.clear()
        shared = [outcome(capsys, argv) for argv, _ in SEQUENCE]
        assert len(parser_builds) == 1
        assert shared == fresh
        assert [code for code, _, _ in shared] == [code for _, code in SEQUENCE]
        assert shared[0][1] == "uuvd\n" and shared[1][1] == "uvud\n"
        assert "illegal character 'x'" in shared[4][2]
        assert shared[6][1].startswith("usage: gmotzkin")

    def test_import_builds_no_parser(self):
        # A fresh interpreter, as this one has imported the package already.
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import gmotzkin, gmotzkin.cli\n"
            "print(len(built), gmotzkin.cli._parser.cache_info().currsize)\n"
        )
        run = fresh_interpreter("-c", code)
        assert (run.returncode, run.stdout, run.stderr) == (0, "0 0\n", "")

    def test_import_loads_no_typing_or_dataclasses(self):
        # Each command starts a fresh interpreter; these three cost most of
        # the package's import time.  -S keeps site hooks from loading them.
        code = (
            "import sys\n"
            "import gmotzkin, gmotzkin.cli\n"
            "print(sorted({'typing', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        run = fresh_interpreter("-S", "-c", code)
        assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")

    def test_verify_up_to_n_6_loads_no_pickle_or_multiprocessing(self):
        # the sweep forks only from n = 7, and imports what forking needs
        # only then
        code = (
            "import sys\n"
            "import gmotzkin.cli\n"
            "from gmotzkin.verify import Harness\n"
            "assert all(r.ok for r in Harness(max_n=6).run_all())\n"
            "print(sorted({'multiprocessing', 'pickle'} & set(sys.modules)))\n"
        )
        run = fresh_interpreter("-c", code)
        assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


class TestRunAsModule:
    def test_count(self):
        run = fresh_interpreter("-m", "gmotzkin", "count", "--n", "4", "--avoid", "uvv", "--eval=1,1,1")
        assert (run.returncode, run.stdout, run.stderr) == (0, "90\n", "")

    def test_closed_pipe_exits_141_without_a_traceback(self):
        # enumerate --n 8 prints 1.27 MB, more than any pipe buffer holds,
        # so a write fails once the reader has stopped after one line.
        proc = subprocess.Popen(
            [sys.executable, "-m", "gmotzkin", "enumerate", "--n", "8"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=package_env(),
        )
        assert proc.stdout.readline() == "u" * 8 + "v" * 8 + "\n"
        proc.stdout.close()
        assert (proc.wait(), proc.stderr.read()) == (141, "")
        proc.stderr.close()

    def test_bad_path_exits_2(self):
        run = fresh_interpreter("-m", "gmotzkin", "sigma", "--path", "uxd")
        assert run.returncode == 2 and run.stdout == ""
        assert "illegal character 'x'" in run.stderr
