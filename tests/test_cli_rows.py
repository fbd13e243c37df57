"""The CLI's default commands print exactly the rows pinned in cli_rows.txt.

Every cell but wall_ms is compared byte for byte, together with the exit
code; tests/pin_cli_rows.py rewrites the file when a change means to move a
row.
"""

import pytest

from pin_cli_rows import COMMANDS, pinned, render

PINNED = pinned()


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_rows_match_the_pinned_rows(command):
    assert render(command) == PINNED[command]
