"""Reading and writing ball collection files.

``load_balls`` must reject every malformed file with ``ValueError``
(exit status 1 through the CLI), and ``dump_balls`` must write back
exactly the text it read for values at the edges of the float range.
"""

import numpy as np
import pytest

from ballcover.cli import main
from ballcover.formats import _fmt, dump_balls, load_balls

REJECTED = {
    "empty": "",
    "header with one number": "2\n0 0 1\n",
    "header with three numbers": "2 1 0\n0 0 1\n",
    "header not numeric": "d n\n0 0 1\n",
    "fewer lines than the count": "2 2\n0 0 1\n",
    "more lines than the count": "2 1\n0 0 1\n1 1 1\n",
    "line with d numbers": "2 1\n0 0\n",
    "line with d + 2 numbers": "2 1\n0 0 1 1\n",
    "non-numeric token": "2 1\n0 x 1\n",
    "nan coordinate": "2 1\nnan 0 1\n",
    "inf coordinate": "2 1\n0 inf 1\n",
    "negative inf coordinate": "2 1\n0 -inf 1\n",
    "zero radius": "2 1\n0 0 0\n",
    "negative radius": "2 1\n0 0 -1\n",
    "nan radius": "2 1\n0 0 nan\n",
    "inf radius": "2 1\n0 0 inf\n",
    "dimension 0": "0 1\n1\n",
    "dimension 0, no balls": "0 0\n",
}


@pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
def test_malformed_file_rejected(text):
    with pytest.raises(ValueError):
        load_balls(text)


@pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
def test_malformed_file_exits_1(tmp_path, text, capsys):
    path = tmp_path / "balls.txt"
    path.write_text(text)
    out = tmp_path / "m.txt"
    assert main(["measure", "--input", str(path), "--output", str(out)]) == 1
    assert "ballcover: error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    [
        "2 3\n5e-324 -0.0 1e+300\n-0.0 0.0 5e-324\n1e+300 -1e+300 0.1\n",
        "1 2\n-0.0 5e-324\n1.7976931348623157e+308 2.2250738585072014e-308\n",
        "3 0\n",
    ],
    ids=["2d", "1d", "empty"],
)
def test_dump_writes_back_what_load_read(text):
    assert dump_balls(load_balls(text)) == text


def test_comments_and_blank_lines_skipped():
    balls = load_balls("# made by hand\n\n1 2\n  0.5 1  \n# between\n2 0.25\n")
    assert dump_balls(balls) == "1 2\n0.5 1.0\n2.0 0.25\n"


def test_fmt_writes_numpy_floats_as_plain_floats():
    # numpy 2 reprs its scalars as np.float64(...); the text must not
    # depend on numpy's version
    assert _fmt(np.float64(0.1)) == "0.1"
    assert _fmt(0.1) == "0.1"
    assert _fmt({3: np.float64(0.25), 2: 1.5}) == "{2:1.5,3:0.25}"
    assert _fmt((1, np.float64(2.0))) == "(1,2.0)"
