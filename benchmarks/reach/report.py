"""The traffic map: ``src/repro`` functions no workload, gate or example runs.

    python3 benchmarks/reach/report.py [--list]

Runs the six ledger workloads (``--seconds 2``), every ``bench_*.py``,
``python -m repro.analysis`` and the examples (``udp_cell.py --selftest`` in
both ``ci.yml`` shapes) under the ``sitecustomize.py`` hook beside this file,
then prints functions and function-body lines unreached per module (``--list``
names them).  About four minutes.  A report, not a gate: the profiler slows
wall-clock ratio gates, so exit codes are printed and otherwise ignored.
"""
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src" / "repro"
PYTEST = "-m pytest -q -p no:cacheprovider --benchmark-disable".split()
SELFTEST = ["examples/udp_cell.py", "--selftest", "--duration", "1.0"]
TRAFFIC = [
    ["benchmarks/ledger/run.py", "--runs", "1", "--seconds", "2"],
    *([*PYTEST, f"benchmarks/{path.name}"]
      for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))),
    ["-m", "repro.analysis", "src", "benchmarks", "examples"],
    *([f"examples/{path.name}"]
      for path in sorted((ROOT / "examples").glob("*.py"))
      if path.name != "udp_cell.py"),
    [*SELFTEST, "--clients", "20"],
    [*SELFTEST, "--clients", "10", "--batch", "8", "--shards", "4",
     "--workers", "2"],
]


def main():
    out = Path(tempfile.mkdtemp(prefix="reach-"))
    env = dict(os.environ, REACH_OUT=str(out / "reach"),
               PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    for args in TRAFFIC:
        code = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        print(f"exit {code}: {' '.join(args)}", file=sys.stderr)
    entered = {tuple(line.rsplit(":", 2)[:2]) for path in out.glob("reach.*")
               for line in path.read_text().splitlines()}
    totals = [0, 0, 0, 0]
    for path in sorted(SRC.rglob("*.py")):
        defs = [node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        # A decorated function's code object starts at its first decorator.
        missed = [node for node in defs if not any(
            (str(path), str(line)) in entered for line in
            (node.lineno, *(d.lineno for d in node.decorator_list)))]
        size = [len(missed), sum(n.end_lineno - n.lineno + 1 for n in missed),
                len(defs), sum(n.end_lineno - n.lineno + 1 for n in defs)]
        totals = [a + b for a, b in zip(totals, size)]
        if missed:
            print("{4}: {0} of {2} functions, {1} of {3} lines".format(
                *size, path.relative_to(SRC)))
            if "--list" in sys.argv:
                print(*(f"    {n.lineno}: {n.name}" for n in missed), sep="\n")
    print("unreached: {0} of {2} functions, {1} of {3} function-body lines"
          .format(*totals))


if __name__ == "__main__":
    main()
