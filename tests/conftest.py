"""Every test starts with the band certificates unproved: the process-wide
memos of verdicts and formal matrices in `pairform.cohomology` are emptied
before it runs, so no test reads a verdict an earlier test left behind."""

import pytest

from helpers import clear_certificates


@pytest.fixture(autouse=True)
def _cold_certificates():
    clear_certificates()
