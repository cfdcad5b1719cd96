"""Lines of ``src/cubal`` that the tier-1 suite never runs.

Runs the suite in this process under ``sys.settrace`` (``coverage`` is not a
dependency) and prints, for each module of the package, the lines that carry
bytecode (``co_lines()``) but never ran, as ranges of such lines.  Extra
arguments go to pytest, so a single test file can be traced as well:

    PYTHONPATH=src python tests/line_coverage.py [pytest args...]

Each module's text is read when the trace starts, and its lines are
numbered from that text.  If a module changes during the run, the script
names it and exits 1 instead of printing a list.

Only this process is traced: the tests that start ``python -m cubal`` in a
child interpreter count for nothing here.  Tracing every line is slow: the
full suite takes 7-9 minutes this way on a shared 2-vCPU host (442 s and
537 s measured, against about 70 s untraced).  pytest does not collect this
file.
"""
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubal"


def bytecode_lines(code: CodeType) -> set[int]:
    """Every line that some instruction of ``code`` or a nested code object carries."""
    lines = {line for _, _, line in code.co_lines() if line}  # a module's prologue is line 0
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= bytecode_lines(const)
    return lines


def ranges(missed: list[int], lines: list[int]) -> str:
    """``missed`` as ranges that run across no other line in ``lines``."""
    position = {line: i for i, line in enumerate(lines)}
    runs: list[list[int]] = []
    for line in missed:
        if runs and position[line] == position[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}
    tracers = {}  # per package file, the line tracer that records into ``ran``

    def tracer(seen: set[int]):
        def local(frame, event, arg):
            seen.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        local = tracers.get(filename)
        if local is None:
            local = tracers[filename] = tracer(ran.setdefault(filename, set()))
        return local(frame, event, arg)

    # the sources as the traced run sees them: line numbers are read from
    # this snapshot, and a module edited during the run voids the list
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    changed = sorted(
        path.name
        for path in set(sources) | set(PACKAGE.glob("*.py"))
        if not path.exists() or sources.get(path) != path.read_text()
    )
    if changed:
        print(f"changed during the run, so no list is printed: {', '.join(changed)}", file=sys.stderr)
        return 1
    for path, text in sources.items():
        code = compile(text, str(path), "exec")
        lines = sorted(bytecode_lines(code))
        missed = [line for line in lines if line not in ran.get(str(path), ())]
        print(f"{path.name}: {len(missed)} of {len(lines)} lines never ran")
        if missed:
            print(f"  {ranges(missed, lines)}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
