"""Which functions under ``src/`` a set of commands reaches (call level).

    python tools/reach.py run reach.json -- python -m repro cluster 13 --nodes 4
    python tools/reach.py run reach.json -- python benchmarks/suite/run.py --smoke
    python tools/reach.py report reach.json [--list]

``run`` executes a command with a profiler (``sys.setprofile`` and
``threading.setprofile``) in every Python process it starts, child
processes included, and adds each function it enters — (file, first
line) of the code object — to ``reach.json``. ``report`` parses every
``def`` under ``src/`` and prints how many no recorded run entered, and
with ``--list`` which. Stdlib only; a profiled run is several times
slower, so timings taken under it mean nothing. pytest-benchmark clears
the profiler inside the functions it times: run benchmark files with
``--benchmark-disable``.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def start(out_dir: str) -> None:
    """Record every function entered by this process (and its threads)
    into ``out_dir/<pid>.json`` at exit."""
    seen: set = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def dump() -> None:
        sys.setprofile(None)
        keys = [[os.path.realpath(f), line] for f, line in list(seen)]
        with open(os.path.join(out_dir, f"{os.getpid()}.json"), "w") as out:
            json.dump(keys, out)

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


def defined() -> dict[tuple[str, int], str]:
    """(file, first line) -> ``file:line name`` of every def under src/;
    a decorated function's code starts at its first decorator."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = f"{path.relative_to(SRC.parent)}:{first} {node.name}"
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=["run", "report"])
    parser.add_argument("db", type=Path, help="JSON file of reached functions")
    parser.add_argument("--list", action="store_true", help="report: name them")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args, command = parser.parse_args(argv[:split]), argv[split + 1:]
    reached = {tuple(k) for k in json.loads(args.db.read_text())} if args.db.exists() else set()
    if args.mode == "run":
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "sitecustomize.py").write_text(
                f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                f"import reach\nreach.start({tmp!r})\n"
            )
            path = os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")]))
            code = subprocess.run(command, env=dict(os.environ, PYTHONPATH=path)).returncode
            for dump in Path(tmp).glob("*.json"):
                reached |= {tuple(k) for k in json.loads(dump.read_text())}
        args.db.write_text(json.dumps(sorted(reached)))
        return code
    unreached = [name for key, name in defined().items() if key not in reached]
    if args.list:
        print("\n".join(unreached))
    print(f"{len(unreached)} of {len(defined())} functions under src/ never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())
