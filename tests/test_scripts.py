"""Scripts under ``scripts/``: the fixed-seed digests against the recorded ones, the digest
script's kernel check, the merge demo and the source line counter."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDED = os.path.join(ROOT, "tests", "output_digests.txt")


def _digests(*args):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "output_digests.py"), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})


def test_fixed_seed_outputs_match_the_recorded_digests():
    """Every output the digest script covers is byte-identical to the recorded
    one. The record's first line names the numpy it was made with, the rest is
    the script's output; on another numpy, BLAS or kernel the digests may
    differ by rounding, so the test skips. A change that moves outputs on
    purpose rewrites the record:

        (echo "numpy $(python -c 'import numpy; print(numpy.__version__)')";
         PYTHONPATH=src python scripts/output_digests.py) > tests/output_digests.txt
    """
    with open(RECORDED) as f:
        numpy_line, *want = f.read().splitlines()
    if numpy_line != f"numpy {np.__version__}":
        pytest.skip(f"digests recorded under {numpy_line}, this is numpy {np.__version__}")
    run = _digests()
    if run.returncode and not run.stdout and "was asked for, but it runs" in run.stderr:
        pytest.skip(run.stderr.strip().splitlines()[-1])  # the CPU cannot run the pinned kernel
    assert run.returncode == 0, run.stderr
    got = run.stdout.splitlines()
    if got[:1] != want[:1]:
        pytest.skip(f"digests recorded under '{want[0]}', this machine runs '{' '.join(got[:1])}'")
    moved = sorted(set(got) ^ set(want))
    assert got == want, "lines that differ from the record:\n" + "\n".join(moved)


@pytest.mark.skipif(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
                    != "scipy-openblas", reason="only scipy-openblas reports its kernel")
def test_a_kernel_openblas_does_not_run_ends_the_digests_before_any_line():
    run = _digests("--kernel", "Bogus")
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


# one line of each kind the counter tells apart; the code lines are marked
SNIPPET = '''"""Module docstring,
on two lines."""

import os  # code


def f(x):  # code
    """Function docstring."""
    # a comment line
    y = max(x,  # code
            1)  # code
    text = """a string  # code
that is not a docstring"""  # code
    return y, text  # code
'''


def test_code_lines_counts_no_docstring_comment_or_blank_line():
    spec = importlib.util.spec_from_file_location(
        "src_lines", os.path.join(ROOT, "scripts", "src_lines.py"))
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    assert src_lines.code_lines(SNIPPET) == SNIPPET.count("# code") == 7
