import argparse
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dualvt.cli import build_parser

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = ["run_demo.py", "run_ablations.py"]
# runs the test suite itself, once per mutant; its table is checked below
MUTANTS = "mutants.py"


@pytest.mark.parametrize("script", SCRIPTS, ids=[Path(s).stem for s in SCRIPTS])
def test_run_demo_exits_zero(tmp_path, script):
    """Each committed script runs the CLI end to end (synth, precompute,
    then transform on the tables it wrote); the demo also checks the written
    F_ht and F_lss against the library's table-free oracles bit for bit, and
    --threads 2 against --threads 1 with `dualvt compare`."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), "--workdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def readme_section(heading: str) -> str:
    """The text under a `## heading` of the README, up to the next heading."""
    text = (REPO / "README.md").read_text().split(f"\n## {heading}\n", 1)[1]
    return text.split("\n## ", 1)[0]


def readme_block(heading: str) -> str:
    """The first fenced code block under a `## heading` of the README."""
    return readme_section(heading).split("```", 2)[1]


def subcommands() -> dict:
    """build_parser()'s subcommand parsers by name."""
    return next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_readme_names_every_subcommand_and_script():
    """The README's CLI and Scripts blocks follow the parser and scripts/,
    and this file runs every script end to end but the mutation suite,
    whose table and runner the tests below check."""
    assert set(re.findall(r"^dualvt (\w+)", readme_block("CLI"), re.M)) == set(subcommands())
    files = {p.name for p in (REPO / "scripts").iterdir() if p.is_file()}
    assert set(re.findall(r"^python3 scripts/(\S+)", readme_block("Scripts"), re.M)) == files
    assert set(SCRIPTS) | {MUTANTS} == files


def mutants_module():
    spec = importlib.util.spec_from_file_location("mutants", REPO / "scripts" / MUTANTS)
    module = sys.modules["mutants"] = importlib.util.module_from_spec(spec)  # for dataclass
    spec.loader.exec_module(module)
    return module


def test_every_mutant_snippet_occurs_once():
    """Each row of the mutation table names a snippet that occurs exactly
    once in its module, and a test that is not a golden-digest test; so a
    refactor that moves a snippet updates its mutant on purpose."""
    mutants = mutants_module()
    assert len(mutants.MUTANTS) >= 20
    assert mutants.check_table() == []
    for m in mutants.MUTANTS:
        for test in m.tests:
            assert (REPO / test.split("::")[0]).is_file(), (m.name, test)


def test_mutant_runner_kills_a_row():
    """The runner end to end on one row: the copy of src/ takes the mutant,
    its tests fail there, and the row is reported killed."""
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / MUTANTS), "table-rig-sizes-unchecked"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "1 of 1 mutants killed" in proc.stdout


def test_readme_names_every_flag():
    """The README's CLI section names exactly the parser's long flags, across
    every subcommand, leaving out --help."""
    flags = {
        opt for parser in subcommands().values() for action in parser._actions
        for opt in action.option_strings if opt.startswith("--")
    } - {"--help"}
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", readme_section("CLI"))) == flags


def test_readme_names_every_module():
    """The README's Library layout table names exactly the modules of
    src/dualvt, leaving out the package's __init__ and __main__."""
    modules = {p.stem for p in (REPO / "src" / "dualvt").glob("*.py")} - {"__init__", "__main__"}
    table = re.findall(r"^\| `dualvt\.(\w+)` \|", readme_section("Library layout"), re.M)
    assert sorted(table) == sorted(modules)
