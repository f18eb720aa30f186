import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dualvt.cli import build_parser

REPO = Path(__file__).resolve().parents[1]
SCRIPTS = ["run_demo.py", "run_ablations.py"]


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
    and this file runs every script."""
    assert set(re.findall(r"^dualvt (\w+)", readme_block("CLI"), re.M)) == set(subcommands())
    files = {p.name for p in (REPO / "scripts").iterdir() if p.is_file()}
    assert set(re.findall(r"^python3 scripts/(\S+)", readme_block("Scripts"), re.M)) == files
    assert set(SCRIPTS) == files


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
