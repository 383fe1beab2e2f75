"""Opt-in line coverage of src/roblearn with the standard library alone.

    PYTHONPATH=src python -m pytest -q -p tests.linecov

traces every line the test run executes in the roblearn package (sys.settrace,
and threading.settrace for threads) and ends the terminal summary with the
executable lines that never ran, as file:first-last ranges. A line is
executable when some instruction of the module's compiled code starts on it;
the line of a `def` or `class` counts as run when its statement runs at
import. Code that runs only in a child process (the CLI's
`if __name__ == "__main__"` line, run by the subprocess tests) is not seen.
Tracing makes the run about twice as slow; tier-1 does not load this module.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
import types
from pathlib import Path


def _package_files() -> dict:
    """The roblearn source files, by resolved path, found without importing
    the package so that its import-time lines are traced too."""
    spec = importlib.util.find_spec("roblearn")
    if spec is None or not spec.submodule_search_locations:
        raise RuntimeError("tests.linecov: roblearn is not importable; set PYTHONPATH=src")
    root = Path(next(iter(spec.submodule_search_locations)))
    return {str(path.resolve()): path for path in sorted(root.glob("*.py"))}


def _executable_lines(path: Path) -> set:
    """The lines on which some instruction of the module's code starts."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line}  # a module's RESUME is at 0
        if code.co_name != "<module>":  # a call's RESUME sits on the def line, untraced
            own.discard(code.co_firstlineno)
        lines |= own
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _ranges(lines) -> str:
    """Sorted line numbers as comma-separated first-last ranges."""
    out, lines = [], sorted(lines)
    start = prev = lines[0]
    for n in lines[1:] + [None]:
        if n != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = n
        prev = n
    return ", ".join(out)


class LineCoverage:
    def __init__(self):
        self.files = _package_files()
        self.hits = {name: set() for name in self.files}

    def _global(self, frame, event, arg):
        hits = self.hits.get(frame.f_code.co_filename)
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    def start(self):
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def pytest_terminal_summary(self, terminalreporter):
        self.stop()
        executable = {name: _executable_lines(path) for name, path in self.files.items()}
        missed = {self.files[name].name: lines - self.hits[name]
                  for name, lines in executable.items() if lines - self.hits[name]}
        terminalreporter.section("line coverage of src/roblearn")
        terminalreporter.write_line(f"{sum(map(len, missed.values()))} of "
                                    f"{sum(map(len, executable.values()))} executable lines never ran")
        for name, lines in sorted(missed.items()):
            terminalreporter.write_line(f"  {name}: {_ranges(lines)}")


def pytest_configure(config):
    coverage = LineCoverage()
    config.pluginmanager.register(coverage, "linecov-tracer")
    coverage.start()
