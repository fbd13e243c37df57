"""Tier-1 runs with every warning raised as an error.

The filter is a mark on this directory's tests rather than an ini-wide
`filterwarnings`, which would also reach the benchmark harness's own tests
when they are run from the repository root.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
