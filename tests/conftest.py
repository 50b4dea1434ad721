import pytest


@pytest.fixture
def apply_calls(monkeypatch):
    """A list that grows by one per ``operators.apply`` call, counted in
    every angulab namespace that binds ``apply``."""
    import angulab
    from angulab import cli, operators, oracle, relations

    calls = []
    apply = operators.apply

    def counted(*args, **kwargs):
        calls.append(1)
        return apply(*args, **kwargs)

    for ns in (angulab, operators, relations, oracle, cli):
        for key, value in list(vars(ns).items()):
            if value is apply:
                monkeypatch.setattr(ns, key, counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::" in nodeid and getattr(rep, "when", "call") == "call":
                rows.append((nodeid.split("::")[-1], outcome == "passed"))
    if not rows:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for name, ok in sorted(rows):
        terminalreporter.write_line(f"  {name}: {'PASS' if ok else 'FAIL'}")
