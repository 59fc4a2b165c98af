"""Every `klsums ...` line of the README's CLI block runs and succeeds, so
the documented examples use only options that exist."""

import io
import json
import re
import shlex
from pathlib import Path

import pytest

from klsums.cli import _COMMANDS, run

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    out = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if ">" in argv:  # the redirect is the shell's, not the command's
            argv = argv[:argv.index(">")]
        assert argv[0] == "klsums", line
        out.append(argv[1:])
    return out


EXAMPLES = cli_examples()


def test_readme_has_an_example_per_subcommand():
    assert {argv[0] for argv in EXAMPLES} == set(_COMMANDS)


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a) for a in EXAMPLES])
def test_readme_example_runs(argv):
    buf = io.StringIO()
    assert run(argv, stdout=buf) == 0
    text = buf.getvalue()
    # a failed run always emits the JSON envelope, so a CSV body means ok
    if text.startswith("{"):
        assert json.loads(text)["status"] == "ok"
    else:
        assert text.startswith("# ")
