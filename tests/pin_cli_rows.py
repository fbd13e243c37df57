"""Pin the report rows of the CLI's default commands in tests/cli_rows.txt.

    PYTHONPATH=src python3 tests/pin_cli_rows.py

Runs every command in COMMANDS in-process and writes, per command, its argv,
its exit code and its stdout with the wall_ms values blanked, the only cells
that vary between runs of the same code. test_cli_rows.py runs the same
commands and compares. The rows change only when a change means to alter
results; re-pin then, and name each row that moved and why.
"""

from __future__ import annotations

import io
import re
import shlex
import sys
from contextlib import redirect_stdout
from pathlib import Path

from anarchy import cli

ROWS = Path(__file__).with_name("cli_rows.txt")
PROMPT = "$ anarchy "

COMMANDS = [
    "auctions paper-table",
    "packing check-smoothness",
    "packing check-smoothness --m 12",
    "flow check-smoothness",
    "maxtsp check-smoothness",
    "auctions check-smoothness",
    "auctions dynamics",
    "packing dynamics",
    "maxtsp dynamics",
    "flow dynamics",
    "packing counterexample",
    "auctions counterexample",
    "flow counterexample",
    "flow counterexample --m 40",
    "packing check-lemma",
    "flow check-lemma",
    "maxtsp check-lemma",
    "auctions check-lemma",
    "auctions check-lemma --k 2",
]


def render(command: str) -> str:
    """The command's block: prompt line, exit code, stdout sans wall_ms."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(shlex.split(command))
    rows = re.sub(r"(?<=wall_ms=)\S*", "", out.getvalue())
    return f"{PROMPT}{command}\nexit {code}\n{rows}"


def pinned() -> dict:
    """command -> its block, as tests/cli_rows.txt holds them."""
    blocks = ROWS.read_text().split(PROMPT)[1:]
    return {block.split("\n", 1)[0]: PROMPT + block for block in blocks}


def main() -> int:
    ROWS.write_text("".join(render(command) for command in COMMANDS))
    print(f"pinned {len(COMMANDS)} commands in {ROWS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
