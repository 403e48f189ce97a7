"""tools/code_lines.py: code lines per module, and against a git revision."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_docstrings_comments_and_blank_lines_do_not_count():
    source = '"""Module."""\n\n# a comment\ndef f(x):\n    """Doc."""\n    return (x +\n            1)\n'
    assert code_lines.code_lines(source) == 3


def test_against_a_revision_prints_both_counts_and_the_difference(tmp_path, capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "kept.py").write_text("a = 1\nb = 2\n")
    (tmp_path / "gone.py").write_text("c = 3\n")
    git("add", ".")
    git("commit", "-q", "-m", "parent")
    (tmp_path / "kept.py").write_text("a = 1\n")
    (tmp_path / "gone.py").unlink()
    (tmp_path / "new.py").write_text("d = 4\ne = 5\nf = 6\n")
    assert code_lines.main([str(tmp_path), "--against", "HEAD"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["1", "0", "-1", "gone.py"], ["2", "1", "-1", "kept.py"],
                    ["0", "3", "+3", "new.py"], ["3", "4", "+1", "total"]]


@pytest.mark.parametrize("args,error", [
    (["{tmp}/missing"], "{tmp}/missing is not a directory"),
    (["{tmp}/empty"], "{tmp}/empty holds no .py file"),
    (["{tmp}/repo", "--against", "nosuchrev"],
     "git cannot read revision nosuchrev in {tmp}/repo: "),
], ids=["missing", "empty", "bad-revision"])
def test_bad_input_is_a_usage_error_naming_it(tmp_path, capsys, args, error):
    (tmp_path / "empty").mkdir()
    (tmp_path / "repo").mkdir()
    (tmp_path / "repo" / "m.py").write_text("a = 1\n")
    with pytest.raises(SystemExit) as exit_:
        code_lines.main([arg.format(tmp=tmp_path) for arg in args])
    assert exit_.value.code == 2
    assert f": error: {error.format(tmp=tmp_path)}" in capsys.readouterr().err
