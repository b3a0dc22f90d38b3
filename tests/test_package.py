"""Public export list of the package, its import graph, and no definition
without a caller."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gfaloha


def test_every_export_resolves():
    missing = [name for name in gfaloha.__all__ if not hasattr(gfaloha, name)]
    assert missing == []


def test_removed_names_stay_unexported():
    # the scalar frame draw and the second sweep driver were merged into
    # traffic.draw_frames and experiment.run_experiment
    for name in ("sweep", "Replica", "VirtualFrame", "draw_virtual_frame"):
        assert name not in gfaloha.__all__
        assert not hasattr(gfaloha, name)


def test_every_top_level_definition_is_reached():
    # a top-level function or class must be named somewhere in the
    # package outside its own body, be exported, or be the CLI entry
    # point; code only tests reach is deleted or merged into the path
    # the program uses (names are matched across modules, not resolved)
    src = Path(gfaloha.__file__).parent
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                own = top.name
                defined.append((path.stem, own))
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    orphans = [f"{mod}.{name}" for mod, name in defined
               if name not in used and name not in gfaloha.__all__
               and (mod, name) != ("cli", "main")]
    assert orphans == []


# Run in a fresh interpreter: every entry point's work, then the scipy
# modules that got loaded (a lazy import inside a call would show here).
COLD_RUN = """
import json, sys, tempfile
import gfaloha
with tempfile.TemporaryDirectory() as out:
    cfg = gfaloha.ExperimentConfig(loads=(0.05, 0.5), reps=2,
                                   packets_per_point=200, oracle_samples=5000,
                                   receiver_trials=2, out_dir=out)
    gfaloha.run_experiment(cfg)
    gfaloha.validate_receiver(cfg)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_program_never_loads_scipy_stats_or_signal():
    # both cost over a second of cold start, for four numbers that
    # scipy.special and scipy.fft give bit for bit
    env = dict(os.environ)
    src = str(Path(gfaloha.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    run = subprocess.run([sys.executable, "-c", COLD_RUN], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert "scipy.special" in loaded and "scipy.fft" in loaded
    assert [m for m in loaded if m.startswith(("scipy.stats", "scipy.signal"))] == []
