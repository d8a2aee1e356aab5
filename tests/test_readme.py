"""The README's examples, replayed: its shell transcripts and its Python snippets.

Each `$ ptrack ...` line of a quick-start transcript (with its `\\`
continuations joined) runs through `cli(argv)` in a fresh directory, and
what it prints must be the lines the README shows under it; where the README
pipes to `head -1`, only the first printed line counts.  The library
snippets then run, one after the other in one namespace, in the directory
of the first transcript, whose files they read.  Every backticked dotted
`ptrack.` name must name something the package has, and so must every
backticked `Name.attr` whose `Name` the package exports: a class attribute
or a dataclass field.
"""
from __future__ import annotations

import dataclasses
import importlib
import re
import shlex
from pathlib import Path

import pytest

import ptrack
from ptrack.cli import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
HEAD_1 = " | head -1"


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def blocks(text: str, lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def transcript(block: str) -> list[tuple[str, list[str]]]:
    """(command, printed lines) pairs, continuations joined, blank lines dropped."""
    steps: list[tuple[str, list[str]]] = []
    lines = iter(block.splitlines())
    for line in lines:
        if line.startswith("$ "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            steps.append((command, []))
        elif line.strip():
            steps[-1][1].append(line)
    return steps


def replay(block: str, capsys) -> None:
    for command, printed in transcript(block):
        head = command.endswith(HEAD_1)
        argv = shlex.split(command.removesuffix(HEAD_1))
        assert argv[0] == "ptrack", command
        assert cli(argv[1:]) == 0, command
        out = capsys.readouterr().out.splitlines()
        assert (out[:1] if head else out) == printed, command


@pytest.fixture(autouse=True)
def no_time_budget(monkeypatch):
    monkeypatch.delenv("PTRACK_TIME_BUDGET_S", raising=False)


QUICK_START = blocks(section("Command-line quick start"), "sh")
SNIPPETS = blocks(section("Library usage"), "python")


def test_the_readme_has_two_transcripts_and_two_snippets():
    assert len(QUICK_START) == 2 and len(SNIPPETS) == 2


def test_supervised_transcript_and_library_snippets(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    replay(QUICK_START[0], capsys)
    namespace: dict = {}  # the second snippet goes on from the first
    for snippet in SNIPPETS:
        exec(compile(snippet, "README.md", "exec"), namespace)
        assert capsys.readouterr().out


def test_unsupervised_transcript(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    replay(QUICK_START[1], capsys)


def resolve(name: str):
    """The object a dotted name names, by attribute or by submodule import."""
    obj = importlib.import_module("ptrack")
    parts = name.split(".")
    for k, part in enumerate(parts[1:], 2):
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(".".join(parts[:k]))
    return obj


NAMES = sorted(set(re.findall(r"`(ptrack(?:\.\w+)+)", README)))


@pytest.mark.parametrize("name", NAMES)
def test_readme_names_resolve(name):
    resolve(name)


EXPORTED = {name for name in dir(ptrack) if not name.startswith("_")}
MEMBERS = sorted({m for m in re.findall(r"`(\w+\.\w+)", README) if m.split(".")[0] in EXPORTED})


def test_the_readme_mentions_members():
    assert "Config.unsupervised" in MEMBERS and "TrackTable.from_tracks" in MEMBERS


@pytest.mark.parametrize("mention", MEMBERS)
def test_readme_members_resolve(mention):
    name, attr = mention.split(".")
    obj = getattr(ptrack, name)
    fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
    assert hasattr(obj, attr) or attr in fields, mention
