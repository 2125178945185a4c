import pytest

from gmotzkin.paths import PathError
from gmotzkin.render import render_ascii, render_svg

# A length-25 G-Motzkin path (29 steps, four of them vertical drops) that
# avoids uvv but not uvu.
SHOWCASE_PATH = "huvuuudhhuvuvddhuuuhddudduuvd"


class TestAscii:
    def test_single_h(self):
        assert render_ascii("h") == "_"

    def test_peak_and_drop(self):
        art = render_ascii("uv")
        assert art.count("/") == 1 and art.count("|") == 1

    def test_segment_counts_for_showcase_path(self):
        art = render_ascii(SHOWCASE_PATH)
        advancing = art.count("/") + art.count("\\") + art.count("_")
        assert advancing == 25
        assert art.count("|") == 4


class TestSvg:
    def test_structure(self):
        svg = render_svg("uhv")
        assert svg.startswith("<svg") and svg.endswith("</svg>")
        assert svg.count("<line") == 3
        assert svg.count("<circle") == 4

    def test_segment_counts_for_showcase_path(self):
        svg = render_svg(SHOWCASE_PATH)
        lines = [tok for tok in svg.splitlines() if tok.startswith("<line")]
        assert len(lines) == 29

        def attrs(tag):
            out = {}
            for part in tag.split():
                if "=" in part:
                    key, _, val = part.partition("=")
                    out[key] = val.strip('"/>')
            return out

        vertical = sum(1 for tag in lines if attrs(tag)["x1"] == attrs(tag)["x2"])
        assert vertical == 4
        assert len(lines) - vertical == 25

    def test_deterministic(self):
        assert render_svg("uudv") == render_svg("uudv")


@pytest.mark.parametrize("fn", [render_ascii, render_svg])
@pytest.mark.parametrize(
    "word,message",
    [
        ("x", "illegal character 'x' at position 0"),
        ("hx", "illegal character 'x' at position 1"),
        ("hd", "height -1 after step 2"),
    ],
)
def test_rejects_words_that_are_not_paths(fn, word, message):
    with pytest.raises(PathError) as err:
        fn(word)
    assert str(err.value) == message
