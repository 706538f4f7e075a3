"""Every function under ``src/symrec`` is one that the CLI runs.

A profile hook records each Python frame that starts, on the caller's
thread and on the worker threads, while ``main`` runs small configs that
together reach every command and every recover and rate variant.  A
``def`` that none of them calls is a helper the package does not need:
delete it, or, if something outside the CLI reads it, name it in
``NOT_RUN_BY_THE_CLI`` with the reason.
"""

import ast
import sys
import threading
from pathlib import Path

import symrec
from symrec.cli_io import main
from symrec.wave_packets import make_profile

from test_cli_io import TWO_TERM_CFG

SRC = Path(symrec.__file__).resolve().parent

# module-qualified name -> why the CLI need not call it
NOT_RUN_BY_THE_CLI = {
    "noise_engine.NoiseKernel.offsets": "read by the perfbench layer trace",
    "expressions._quote": "formats expressions in error messages only",
    "cli_io._each": "builds the config domain checks at import",
}

COMMANDS = {
    "recover-oracle": ("recover", ""),
    "recover-both": ("recover", "subtract = both\n"),
    "recover-self": ("recover", "subtract = self\n"),
    "recover-noise-off": ("recover", "noise = false\n"),
    "noise-stats": ("noise-stats", "scale = 4\n"),
    # any sharpness but the tabulated default builds its profile by the
    # compute path
    "noise-stats-sharpness": ("noise-stats", "scale = 4\nprofile_sharpness = 0.75\n"),
    "variance-plain": (
        "variance-scaling", "grid = 8, 16, 32, 64\ntrials = 1000\n",
    ),
    "variance-averaged": (
        "variance-scaling", "mode = averaged\ngrid = 4, 8, 16, 32\ntrials = 1000\nterm = 2\n",
    ),
    "nonconvergence": (
        "nonconvergence",
        "beta = 0.5\nthreshold = 6.0\ngrid = 3, 4.2426, 6, 8.4853\ntrials = 50\nterm = 2\n",
    ),
    "rate": (
        "rate", "grid = 4, 6, 8, 12\nrate_eps = 0.4, 0.8\nrate_delta = 1\ntrials = 20\n",
    ),
    "rate-noise-off": (
        "rate",
        "noise = false\ngrid = 4, 6, 8, 12\nrate_eps = 0.4, 0.8\nrate_delta = 1\n"
        "trials = 20\n",
    ),
    "asymptotics": ("asymptotics", "grid = 4, 8, 16, 32\n"),
}


def _defs() -> dict:
    """(file, first line of its code object) -> module-qualified name, for
    every def in the package; a decorated function's code starts at its
    first decorator."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = prefix + child.name
                    visit(child, prefix + child.name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, path.stem + ".")
    return out


def test_every_def_under_src_runs_in_the_cli(tmp_path):
    called = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    make_profile.cache_clear()  # a profile built before the hook hides its helpers
    codes = {}
    threading.setprofile(record)
    sys.setprofile(record)
    try:
        for name, (command, lines) in COMMANDS.items():
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(TWO_TERM_CFG + lines)
            out = tmp_path / name
            codes[name] = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == dict.fromkeys(COMMANDS, 0)

    called = {(str(Path(file).resolve()), line) for file, line in called}
    runs = {name: key in called for key, name in _defs().items()}
    assert sorted(n for n, ran in runs.items() if not ran and n not in NOT_RUN_BY_THE_CLI) == []
    # an entry the CLI does run, or that names no def, is stale
    assert sorted(n for n in NOT_RUN_BY_THE_CLI if runs.get(n, True)) == []
