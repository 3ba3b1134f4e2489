"""Print one pass/fail line per acceptance criterion after the run, and
register the hypothesis profile that explores new op graphs and run-config
values."""

from hypothesis import settings

# `pytest tests/test_tensor_graphs.py --hypothesis-profile=explore` checks new
# random graphs on each run (a non-blocking CI step, which also runs the
# run-config fuzz of tests/test_cli.py); without a profile the graph
# properties and the fuzz replay a fixed set (tests/helpers.py::fixed_or_explored)
settings.register_profile("explore", derandomize=False, deadline=None, max_examples=2000)

_ACCEPTANCE = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _ACCEPTANCE[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE):
        name = nodeid.split("::")[-1]
        word = {"passed": "PASS", "failed": "FAIL"}.get(
            _ACCEPTANCE[nodeid], _ACCEPTANCE[nodeid].upper())
        terminalreporter.write_line(f"{name}: {word}")
