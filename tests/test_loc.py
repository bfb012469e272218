"""tools/loc.py: the kind of every line of a small fixture module, and the
table it prints for a directory."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

_spec = importlib.util.spec_from_file_location("stjac_loc", SCRIPT)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# each line with the kind it is counted as
FIXTURE = [
    ('"""Module docstring,', "docstring"),
    ("", "blank"),
    ('two paragraphs."""', "docstring"),
    ("", "blank"),
    ("import math  # a trailing comment is code", "code"),
    ("    ", "blank"),
    ("# a comment line", "comment"),
    ("class Box:", "code"),
    ('    """One line."""', "docstring"),
    ("", "blank"),
    ("    def size(self):", "code"),
    ('        """A method docstring', "docstring"),
    ("        # inside a docstring, not a comment", "docstring"),
    ('        """', "docstring"),
    ('        text = """not a docstring:', "code"),
    ('        # textual: a comment, though inside a string"""', "comment"),
    ("        return len(text)  # code", "code"),
    ("", "blank"),
    ("async def f():", "code"),
    ("    'an async docstring'", "docstring"),
    ("    x = 1", "code"),
    ("    'a later string is code'", "code"),
]


def test_every_line_of_the_fixture_gets_its_kind(tmp_path):
    source = "\n".join(line for line, _ in FIXTURE) + "\n"
    want = {kind: sum(k == kind for _, k in FIXTURE) for kind in loc.KINDS}
    assert loc.count(source) == want == {"code": 8, "docstring": 7, "comment": 2, "blank": 5}
    (tmp_path / "b.py").write_text(source)
    (tmp_path / "a.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "notes.txt").write_text("ignored\n")
    rows = loc.table(tmp_path)
    assert [name for name, _ in rows] == ["a.py", "b.py", "total"]
    assert rows[0][1] == {"code": 1, "docstring": 0, "comment": 1, "blank": 1}
    assert rows[-1][1] == {kind: want[kind] + rows[0][1][kind] for kind in loc.KINDS}


def test_the_printed_total_adds_up_to_the_line_count(capsys):
    assert loc.main([str(SCRIPT.parent)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", *loc.KINDS, "lines"]
    total = lines[-1].split()
    assert total[0] == "total"
    assert int(total[-1]) == sum(map(int, total[1:-1])) == sum(
        len(path.read_text().splitlines()) for path in SCRIPT.parent.glob("*.py")
    )
