"""The package runs on numpy alone, and loads no module it does not use.

scipy is a test dependency: the oracles use its brentq root finder, its
linear_sum_assignment and its gammaln.  Importing it costs about a quarter
second of start-up and tens of MB of resident memory, so the package must
neither load it on import nor need it at runtime.  Two lighter imports are
kept out as well: ``numpy.ma`` (about 20 ms and 1.3 MB, pulled in by
``np.unique``) and the process-pool machinery (about 24 ms), which only a
multi-worker sweep needs.  The import checks run in a fresh interpreter,
since this test process has these modules loaded already.  A last check
reads the source: every module-level import of a package module is read
there.
"""

import ast
import glob
import os
import subprocess
import sys

import ris_mac


def run_python(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ris_mac.__file__)))
    env = dict(os.environ, PYTHONPATH=src, RIS_MAC_THREADS="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_package_import_loads_no_scipy():
    code = (
        "import sys, ris_mac\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert run_python(code) == "[]"


def test_package_import_loads_no_process_pool():
    code = (
        "import sys, ris_mac\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    assert run_python(code) == "[]"


def test_point_sweep_loads_no_numpy_ma():
    code = """
import sys
from ris_mac import experiments as exp
from ris_mac.scenario import default_scenario
from ris_mac.simulator import MODES
rows = exp.run_experiment(default_scenario(), exp.parse_sweep("point"), [1], modes=MODES)
print(len(rows), sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""
    assert run_python(code) == "3 []"


def test_point_sweep_runs_with_scipy_blocked():
    # a None entry in sys.modules makes every `import scipy...` raise
    code = """
import sys
sys.modules["scipy"] = None
from ris_mac import experiments as exp
from ris_mac.scenario import default_scenario
from ris_mac.simulator import MODES
rows = exp.run_experiment(default_scenario(), exp.parse_sweep("point"), [1], modes=MODES)
print(",".join("%s:%d" % (r["mode"], r["s_o_bps"] > 0) for r in rows))
"""
    assert run_python(code) == "proposed:1,scheme1:1,scheme2:1"


def unused_imports(path):
    """Names bound by a module-level import of ``path`` that the module never
    reads (``from __future__`` imports bind nothing to read)."""
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted("%s:%d %s" % (os.path.basename(path), line, name)
                  for name, line in bound.items() if name not in read)


def test_package_modules_read_every_import():
    pkg = os.path.dirname(os.path.abspath(ris_mac.__file__))
    paths = sorted(glob.glob(os.path.join(pkg, "*.py")))
    assert len(paths) > 1
    found = [u for p in paths if os.path.basename(p) != "__init__.py" for u in unused_imports(p)]
    assert found == []
