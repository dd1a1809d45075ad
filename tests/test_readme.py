"""The README's transcripts and Library snippet, run as written.

Each ``$ taubound ...`` line of a README code block (with its ``\\``
continuation lines) runs through ``cli_run`` from the root of the source
checkout, and its stdout must equal the lines that follow it up to the
next blank line.  The Library snippet runs as written, and each value it
prints must equal the comment on its ``print`` line.
"""

import contextlib
import io
import os
import re
import shlex

import pytest

from taubound.cli import cli_run

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as _fh:
    README = _fh.read()


def _code_blocks(text, lang=""):
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, flags=re.M | re.S)


def _transcripts(text):
    """(argv, expected stdout) for every ``$ taubound`` line of a code block."""
    out = []
    for block in _code_blocks(text):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            if not lines[i].startswith("$ taubound "):
                i += 1
                continue
            command = lines[i][2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + lines[i]
            i += 1
            expected = []
            while i < len(lines) and lines[i] and not lines[i].startswith("$ "):
                expected.append(lines[i])
                i += 1
            out.append((shlex.split(command)[1:], "".join(l + "\n" for l in expected)))
    return out


def _run(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_run(argv)
    return code, stdout.getvalue()


def _mismatches(text):
    """The transcripts of ``text`` whose run differs from what it shows."""
    bad = []
    for argv, expected in _transcripts(text):
        code, got = _run(argv)
        if code != 0 or got != expected:
            bad.append((argv, code, got))
    return bad


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_every_transcript_prints_what_the_readme_shows(at_root):
    commands = [argv[0] for argv, _ in _transcripts(README)]
    assert commands == ["validate", "enumerate", "report", "tau", "rigid", "endo"]
    assert _mismatches(README) == []


def test_a_changed_transcript_line_is_seen(at_root):
    # one output line of the enumerate transcript, changed
    changed = README.replace("  P1+S1   [tau-tilting-not-tilting]\n",
                             "  P1+S1   [tilting]\n", 1)
    assert changed != README
    assert [argv[0] for argv, _, _ in _mismatches(changed)] == ["enumerate"]


def test_the_library_snippet_prints_its_comments(at_root):
    (snippet,) = _code_blocks(README, "python")
    expected = [line.partition("#")[2].strip() for line in snippet.splitlines()
                if line.startswith("print(")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(snippet, "README.md", "exec"), {})
    assert expected == ["tau-tilting-not-tilting", "5 5", "tight"]
    assert stdout.getvalue().splitlines() == expected


def test_the_module_terms_are_the_ones_the_cli_reads(at_root):
    # the README names exactly the terms that parse_module_expr accepts
    terms = README[README.index("Modules are named"):].split("\n\n")[0]
    for term in ("`P(v)`", "`S(v)`", "`0`", "`.mod`"):
        assert term in terms
    assert "I(v)" not in terms
    assert _run(["tau", "--algebra", "corpus/arrow_loop.alg",
                 "--module", "I(1)"])[0] == 2
