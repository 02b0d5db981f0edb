"""Each script in ``demos/`` runs standalone and exits 0."""

import glob
import os
import subprocess
import sys

import pytest

import polyopt

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(__file__)), "demos", "*.py")))


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    src = os.path.dirname(os.path.dirname(polyopt.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, path], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_every_demo_found():
    assert len(DEMOS) == 5
