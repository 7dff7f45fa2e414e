"""Shared fixtures and property-test settings; collects acceptance one-liners
for the terminal summary."""

import pytest
from hypothesis import settings

# Property tests have no deadline (exact arithmetic varies widely in time) and
# keep no example database; each test sets only its own max_examples.
settings.register_profile("koszul", deadline=None, database=None)
settings.load_profile("koszul")

_ACCEPT: list[str] = []


@pytest.fixture
def criterion_recorder():
    """Append one 'criterion N [PASS|FAIL] ...' line to the summary block."""
    return _ACCEPT.append


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPT:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(_ACCEPT):
        terminalreporter.write_line(line)
