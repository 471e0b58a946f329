import ast

import pytest

_acceptance_lines: list[str] = []


@pytest.fixture()
def acceptance():
    """Recorder for one-line acceptance verdicts, echoed in the run summary."""

    def record(line: str) -> None:
        _acceptance_lines.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def referenced_names(tree: ast.AST) -> list[str]:
    """Every name an AST tree references, in walk order: a name, an attribute or an imported name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
    return names
