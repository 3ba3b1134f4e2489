"""Scripts under ``scripts/``: the digest script's kernel check and the merge demo."""

import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.skipif(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
                    != "scipy-openblas", reason="only scipy-openblas reports its kernel")
def test_a_kernel_openblas_does_not_run_ends_the_digests_before_any_line():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "output_digests.py"), "--kernel", "Bogus"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert run.returncode != 0 and run.stdout == ""
    assert "OpenBLAS kernel Bogus was asked for, but it runs" in run.stderr


def test_merge_alignment_demo_prints_each_merge():
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "merge_alignment_demo.py"), "--epochs", "1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert run.returncode == 0, run.stderr
    labels = [line.split(":")[0] for line in run.stdout.splitlines()]
    assert labels == ["endpoint seed=0", "endpoint seed=1", "naive midpoint", "weight-match mid",
                      "ot-fusion mid", "aligned + repair", "hidden layer 0", "hidden layer 1"]
