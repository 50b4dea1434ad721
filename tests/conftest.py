import pytest


@pytest.fixture
def actions(monkeypatch):
    """A list that grows by one per operator action: each ``operators.apply``
    call, counted in every angulab namespace that binds ``apply``.  An
    action taken inside a counted one is not counted again."""
    import angulab
    from angulab import cli, operators, oracle, relations

    calls = []
    inside = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            if not inside:
                calls.append(1)
            inside.append(1)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()

        return wrapper

    apply = operators.apply
    counted_apply = counted(apply)
    for ns in (angulab, operators, relations, oracle, cli):
        for key, value in list(vars(ns).items()):
            if value is apply:
                monkeypatch.setattr(ns, key, counted_apply)
    return calls


@pytest.fixture
def lookups(monkeypatch):
    """A list that grows by the observables of each block lookup, one entry
    per ``operators.Ket._block`` call."""
    from angulab import operators

    calls = []
    block = operators.Ket._block

    def counted(self, *obs):
        calls.append(obs)
        return block(self, *obs)

    monkeypatch.setattr(operators.Ket, "_block", counted)
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
