"""Print the lines of src/otda that the test suite does not reach in process.

    python tools/line_reach.py [pytest arguments]

Runs pytest in this process under sys.settrace, then lists each executable
line of the package that no test ran, as path:line: source, and a count.
Lines that run only in pool workers or subprocesses show as unreached. The
trace roughly doubles the suite's wall time.
"""

import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "otda"


def executable_lines(path: Path) -> set:
    """The line numbers that carry bytecode in the module or any code in it."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def main(args: list) -> int:
    reached = {str(path): set() for path in SRC.glob("*.py")}

    def trace(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            lines.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name in sorted(reached):
        path = Path(name)
        source = path.read_text().splitlines()
        unreached = sorted(executable_lines(path) - reached[name])
        total += len(executable_lines(path))
        missed += len(unreached)
        for line in unreached:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"reached {total - missed} of {total} executable lines; pytest exited {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
