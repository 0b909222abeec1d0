"""Smoke tests: each experiment script runs in a fresh interpreter at a
small configuration and prints its header."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


@pytest.mark.parametrize("script,args,header", [
    ("norm_convergence.py", ["--kernels", "H", "--ps", "4", "--max-radius", "64"],
     ["kernel,p,N,estimate,sharp_constant,gap,iterations,converged"]),
    ("weaktype_search.py", ["--budget", "3", "--window", "256"],
     ["davis constant: 1.346885251999", "random_signs ", "greedy_atoms ",
      "discretized_bumps "]),
    ("mc_validation.py", ["--paths", "200"], ["functional: ", "occupation: "]),
])
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) >= len(header)
    for line, start in zip(lines, header):
        assert line.startswith(start)
