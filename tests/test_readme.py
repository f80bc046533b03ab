"""README's examples run as written: the library quickstart prints what its
comment shows, every `$ gfrec` line of the command-line block exits 0, and
the csv example prints the lines shown under it."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gfrec
from gfrec import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, lang=""):
    """The first fenced block, in language lang, under the `## heading` section."""
    section = README.split("\n## %s\n" % heading, 1)[1]
    return section.split("```%s\n" % lang, 1)[1].split("```", 1)[0]


COMMAND_LINES = _block("Command line").splitlines()
COMMANDS = [line[2:] for line in COMMAND_LINES if line.startswith("$ gfrec ")]


def test_the_library_quickstart_prints_what_its_comment_shows():
    code = _block("Library quickstart", "python")
    shown = re.search(r"^print\(.*\)\s+# (.*)$", code, re.MULTILINE).group(1)
    src = str(Path(gfrec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == shown


@pytest.mark.parametrize("line", COMMANDS)
def test_every_command_line_example_exits_0(line, capsys):
    argv = shlex.split(line)
    assert argv[0] == "gfrec"
    assert cli.main(argv[1:]) == 0, capsys.readouterr().err


def test_the_csv_example_prints_the_lines_shown(capsys):
    assert COMMANDS, "no `$ gfrec` line under Command line"
    i = next(i for i, line in enumerate(COMMAND_LINES) if line.startswith("$ gfrec ") and "--format csv" in line)
    shown = COMMAND_LINES[i + 1 : COMMAND_LINES.index("", i)]
    assert cli.main(shlex.split(COMMAND_LINES[i])[2:]) == 0
    assert capsys.readouterr().out.splitlines() == shown
