import os
import subprocess
import sys

import skeinlab


def test_runtime_import_does_not_load_sympy():
    # a fresh interpreter: this test process may have imported sympy already
    src = os.path.dirname(os.path.dirname(skeinlab.__file__))
    code = "import sys, skeinlab, skeinlab.cli; assert 'sympy' not in sys.modules, 'sympy loaded'"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
