"""Line reach of src/spectower under tier-1, with the standard library only.

    PYTHONPATH=src python tests/reach.py

runs the tier-1 tests in this process under a ``sys.settrace`` line
collector restricted to ``src/spectower``, and prints every executable line
(a line that an instruction of the module's code maps to) that no test
reaches.  It exits 1 when a printed line is not in ``ALLOWED``, else 0.

Timing and allocation tests fail under a tracer, so the tests' own exit
status is printed, not gated on: this run reports lines and never stands in
for tier-1.  The five tests that time or count many converges are left out
(``SKIPPED``): they fail under the tracer anyway, take about half of its
time, and reach no line that another test does not.  Hypothesis runs with
a fixed seed, so every run reaches the same lines.  Line tables differ between Python versions; ``ALLOWED`` is
kept against Python 3.11.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "spectower")

# (file, stripped source line, reason): every line of that text in that file
# may stay unreached.  An entry is for a line that runs only outside the
# traced process; a refusal or a check gets a test instead, and code that no
# caller can reach is deleted.
ALLOWED = (
    ("cli.py", "sys.exit(main())",
     "runs only when cli.py is the __main__ module: the console-script and -m tests run it in a child process"),
    ("__init__.py", "return sorted(globals().keys() | set(__all__) | set(_EXPORTS))",
     "dir() before first use needs a fresh interpreter: test_package runs it in a child process"),
)


# pytest -k expression: the best-of-ten converge timings and the allocation count of distinct gaps
SKIPPED = ("not (dense_q_tower_converges or large_prime_tower_converges_within_budget"
           " or f2_tower_builds_and_converges_within_budget or distinct_gaps_cost_their_pairs)")


def executable_lines(path):
    """The line numbers that some instruction of the code in path maps to."""
    with open(path, encoding="utf-8") as f:
        todo, lines = [compile(f.read(), path, "exec")], set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def reached_lines():
    """(pytest exit status, {path: lines reached}) of tier-1 run under the collector."""
    import pytest

    reached = {}

    def line(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):  # a frame of src/spectower gets the line tracer, any other none
        path = frame.f_code.co_filename
        if not path.startswith(SRC):
            return None
        reached.setdefault(path, set()).add(frame.f_lineno)
        return line

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "--tb=no", "-p", "no:cacheprovider", "--hypothesis-seed=0", "-k", SKIPPED])
    finally:
        sys.settrace(None)
    return status, reached


def main():
    status, reached = reached_lines()
    allowed = {(name, text): why for name, text, why in ALLOWED}
    total, missed = 0, []
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as f:
            text = f.read().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        missed += [(name, n, text[n - 1].strip()) for n in sorted(lines - reached.get(path, set()))]
    print("tests exited %d under the tracer (a timing test may fail under it)" % status)
    print("%d of %d executable lines of src/spectower unreached" % (len(missed), total))
    for name, n, text in missed:
        why = allowed.get((name, text))
        print("%s:%d: %s  [%s]" % (name, n, text, "allowed: " + why if why else "NOT ALLOWED"))
    return int(any((name, text) not in allowed for name, _, text in missed))


if __name__ == "__main__":
    sys.exit(main())
