import threading
import time

import pytest

_acceptance_results: dict[int, dict] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    criterion = marker.kwargs["criterion"]
    entry = _acceptance_results.setdefault(
        criterion, {"name": marker.kwargs["name"], "passed": True, "duration": 0.0}
    )
    # a criterion may span several tests; it passes only if all of them do
    if report.failed:
        entry["passed"] = False
    if report.when == "call":
        entry["duration"] += report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(_acceptance_results):
        entry = _acceptance_results[criterion]
        verdict = "PASS" if entry["passed"] else "FAIL"
        terminalreporter.write_line(
            f"criterion {criterion} ({entry['name']}): {verdict} ({entry['duration']:.2f}s)"
        )


def _service_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.endswith(("-accept", "-conn"))]


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if a service's accept or connection thread outlives it by 3 s."""
    end = time.monotonic() + 3
    for thread in _service_threads():
        thread.join(max(end - time.monotonic(), 0))
    left = sorted(t.name for t in _service_threads())
    if left:
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        reporter.write_line(f"\nservice threads still running after the run: {left}")
        session.exitstatus = 1
