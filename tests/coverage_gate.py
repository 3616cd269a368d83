"""Line gate: every executable line of ``src/metaphrase`` runs in the suite, or says why not.

A pytest plugin, stdlib only and off by default. Load it by name, before
anything imports the package::

    PYTHONPATH=src python -m pytest -q -p tests.coverage_gate

It starts a line tracer when pytest loads it, so module-level lines count.
At the end of the session every executable line (a line that carries
bytecode, found by compiling each file) that did not run fails the session,
unless it carries a ``# unexecuted: <reason>`` comment. A marked line that
did run fails it too, so no mark outlives its reason.
"""

import re
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "metaphrase"
MARK = re.compile(r"# unexecuted: \S")

if any(name == "metaphrase" or name.startswith("metaphrase.") for name in sys.modules):
    raise ImportError("coverage_gate must load before metaphrase is imported: "
                      "pass -p tests.coverage_gate")

_ran: dict[str, set[int]] = {}  # co_filename -> lines that ran
_traced: dict[str, bool] = {}  # co_filename -> whether it is a package file


def _trace_lines(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_lines


def _trace_calls(frame, event, arg):
    filename = frame.f_code.co_filename
    traced = _traced.get(filename)
    if traced is None:
        traced = _traced[filename] = Path(filename).resolve().is_relative_to(SRC)
        if traced:
            _ran[filename] = set()
    return _trace_lines if traced else None


sys.settrace(_trace_calls)  # the package is single-threaded


def executable_lines(code: types.CodeType) -> set[int]:
    """The line numbers that carry bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable_lines(const)
    return lines


def findings() -> list[str]:
    """One ``path:line: ...`` entry per unmarked line that did not run or marked line that did."""
    ran: dict[Path, set[int]] = {}
    for filename, lines in _ran.items():
        ran.setdefault(Path(filename).resolve(), set()).update(lines)
    out = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        seen = ran.get(path, set())
        where = path.relative_to(SRC.parent.parent)
        for line in sorted(executable_lines(compile(source, str(path), "exec"))):
            marked = MARK.search(text[line - 1]) is not None
            if (line in seen) == marked:
                out.append(f"{where}:{line}: " + ("marked unexecuted but ran" if marked
                                                  else "never ran"))
    return out


_report: list[str] = []


def pytest_sessionfinish(session):
    sys.settrace(None)
    _report.extend(findings())
    if _report and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _report:
        terminalreporter.section("coverage gate")
        for entry in _report:
            terminalreporter.line(entry)
