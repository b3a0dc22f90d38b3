"""Public export list of the package, its import graph, and no definition
without a caller."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import gfaloha


def test_every_export_resolves():
    missing = [name for name in gfaloha.__all__ if not hasattr(gfaloha, name)]
    assert missing == []


def test_removed_names_stay_unexported():
    # the scalar frame draw and the second sweep driver were merged into
    # traffic.draw_frames and experiment.run_experiment; the MMSE helpers
    # had no caller in the program; the analytic chain carries its laws
    # as plain pmf arrays and its solution as SolveResult.g; every config
    # file is read through ExperimentConfig.from_file; the packet duration
    # is SystemParams.Tp, derived from the link budget
    for name in ("sweep", "Replica", "VirtualFrame", "draw_virtual_frame",
                 "mmse_weights", "combined_sinr", "InterferenceCdf",
                 "LoadPoint", "load_params", "packet_duration"):
        assert name not in gfaloha.__all__
        assert not hasattr(gfaloha, name)


def names(node) -> Counter:
    """Every name and attribute named anywhere under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_top_level_definition_is_reached():
    # a top-level function or class, and each non-dunder method of a
    # top-level class, must be named somewhere in the package outside
    # its own body; a top-level one may instead be exported or be the CLI
    # entry point. Code only tests reach is deleted or merged into the
    # path the program uses (names are matched across modules, not
    # resolved)
    src = Path(gfaloha.__file__).parent
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, used = [], Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        used += names(tree)
        for top in tree.body:
            if not isinstance(top, (*funcs, ast.ClassDef)):
                continue
            exempt = (top.name in gfaloha.__all__
                      or (path.stem, top.name) == ("cli", "main"))
            defined.append((f"{path.stem}.{top.name}", top, exempt))
            if isinstance(top, ast.ClassDef):
                defined += [(f"{path.stem}.{top.name}.{m.name}", m, False)
                            for m in top.body if isinstance(m, funcs)
                            and not (m.name.startswith("__")
                                     and m.name.endswith("__"))]
    orphans = [label for label, node, exempt in defined
               if not exempt and used[node.name] == names(node)[node.name]]
    assert orphans == []


def cold_run(code: str) -> list[str]:
    """The scipy modules loaded in a fresh interpreter after running code
    (a lazy import inside a call would show here)."""
    env = dict(os.environ)
    src = str(Path(gfaloha.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.'))))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(run.stdout.splitlines()[-1])


# every entry point's work at a given repetition count
ENTRY_POINTS = """
import tempfile
import gfaloha
with tempfile.TemporaryDirectory() as out:
    cfg = gfaloha.ExperimentConfig(loads=(0.05, 0.5), reps={reps},
                                   packets_per_point=200, receiver_trials=2,
                                   out_dir=out)
    gfaloha.run_experiment(cfg)
    gfaloha.validate_receiver(cfg)
"""


def test_import_and_single_repetition_run_load_no_scipy():
    # numpy gives the FFTs and the Lambert W is plain Python: importing
    # the package, and a run that needs no t quantile, load no scipy
    assert cold_run("import gfaloha") == []
    assert cold_run(ENTRY_POINTS.format(reps=1)) == []


def test_program_never_loads_scipy_stats_or_signal():
    # with two repetitions the confidence half-width reads the Student-t
    # quantile from scipy.special; no other scipy subpackage is loaded
    # (scipy's own __init__ brings in scipy.version and private modules)
    loaded = cold_run(ENTRY_POINTS.format(reps=2))
    subpackages = {m.split(".")[1] for m in loaded if m.startswith("scipy.")}
    assert "special" in subpackages
    assert {s for s in subpackages if not s.startswith("_")} \
        <= {"special", "version"}
