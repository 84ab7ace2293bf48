"""The README's examples run as printed: the command-line block and the Library block."""

import re
import shlex
from pathlib import Path

from crrkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(section: str, language: str) -> str:
    """The first ``language`` fenced block after the ``## section`` heading."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n## {section}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(text, start)
    return match.group(1)


def examples(block: str):
    """(argv, expected stdout lines) for each ``$ crrkit ...`` example."""
    for chunk in block.strip().split("\n\n"):
        command, *expected = chunk.splitlines()
        assert command.startswith("$ crrkit "), command
        yield shlex.split(command)[2:], expected


def matches(got: list[str], expected: list[str]) -> bool:
    """Line for line; a "..." line stands for any run of lines."""
    if "..." not in expected:
        return got == expected
    cut = expected.index("...")
    head, tail = expected[:cut], expected[cut + 1 :]
    return (
        len(got) >= len(head) + len(tail)
        and got[: len(head)] == head
        and got[len(got) - len(tail) :] == tail
    )


def test_readme_examples_print_what_the_readme_shows(capsys, monkeypatch, tmp_path):
    # the examples run in order in one directory: decode reads encode's file
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv, expected in examples(code_block("Command line", "text")):
        code = main(argv)
        got = capsys.readouterr().out.splitlines()
        assert (code, matches(got, expected)) == (0, True), (argv, got)
        ran.append(argv[0])
    assert ran == [
        "gen-base", "encode", "decode", "decode", "div", "prob-stats",
        "check-bound", "selftest",
    ]
    exec(code_block("Library", "python"), {})


def test_paper_claims_name_tests_that_exist():
    # every test and criterion that the "Paper claims" table cites
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Paper claims\n")
    table = text[start : text.index("\n## ", start + 1)]
    tests = README.parent.glob("tests/*.py")
    sources = "".join(path.read_text(encoding="utf-8") for path in tests)
    cited = re.findall(r"`(test_\w+)`", table)
    criteria = re.findall(r"criterion (\d\d)", table)
    assert len(cited) >= 2 and len(criteria) >= 8
    for name in cited:
        assert f"def {name}(" in sources, name
    for number in criteria:
        assert f"def test_criterion_{number}_" in sources, number
