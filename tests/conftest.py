"""Every test starts with the band certificates unproved: the process-wide
memos of `pairform.cohomology` (verdicts and formal matrices) are
emptied before it runs, so no test reads a value an earlier test left
behind."""

import pytest

from helpers import clear_certificates


@pytest.fixture(autouse=True)
def _cold_certificates():
    clear_certificates()
