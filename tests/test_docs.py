import importlib
import re
import shlex
from pathlib import Path

import pytest

from agstab import cli

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("artifact", "bounds", "cli", "curves", "decoder", "descent", "gf", "linalg", "symplectic")
# module.name, or agstab.module.name, with any further .attr; not the tail of a longer dotted name
REFERENCE = re.compile(r"(?<![\w.])(?:agstab\.)?(" + "|".join(MODULES) + r")((?:\.[A-Za-z_]\w*)+)")
FILE_SUFFIXES = {"py", "csv", "json", "jsonl"}
SOURCES = sorted((ROOT / "src" / "agstab").glob("*.py")) + [ROOT / "README.md"]
# and the tests, but for this file, whose negative control names what does not exist
SOURCES += [path for path in sorted((ROOT / "tests").glob("*.py")) if path.name != Path(__file__).name]


def references(text):
    """(module, dotted attribute path) for each reference to an agstab module's name in ``text``."""
    for m in REFERENCE.finditer(text):
        path = m.group(2)[1:].split(".")
        if path[0] not in FILE_SUFFIXES:  # gf.py, curves.csv: file names
            yield m.group(1), path


def missing_names(text):
    """Each reference in ``text`` that does not resolve with getattr, as module.name."""
    missing = []
    for module, path in references(text):
        obj = importlib.import_module(f"agstab.{module}")
        for name in path:
            if not hasattr(obj, name):
                missing.append(f"{module}.{'.'.join(path)}")
                break
            obj = getattr(obj, name)
    return missing


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_every_module_name_in_the_docs_exists(source):
    missing = missing_names(source.read_text())
    assert not missing, f"{source.name} names what does not exist: {sorted(set(missing))}"


def test_the_scan_sees_a_missing_name():
    # negative control: a name no module has is reported; names that exist and file names are not
    text = ("``linalg.rref`` and ``agstab.symplectic.CodeBasis.from_rows``; linalg.no_such_kernel, "
            "symplectic.CodeBasis.no_such_method; gf.py, curves.csv")
    assert missing_names(text) == ["linalg.no_such_kernel", "symplectic.CodeBasis.no_such_method"]


def test_the_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # each line of README's *Command line* block, in order, in one directory: every file it reads,
    # an earlier line writes
    block = ROOT.joinpath("README.md").read_text().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.splitlines()]
    assert lines and all(line[0] == "agstab" for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(line[1:]) == 0, f"{shlex.join(line)}: {capsys.readouterr().err}"
