"""Every walkthrough in demos/ runs to completion, and so does the
README's library tour."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(demo):
    # every warning is an error in the demo's own interpreter, as pytest's
    # filter makes it one here
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def library_tour():
    """The ``python`` block under the README's "Library tour" heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_readme_library_tour_runs(capsys):
    names = {}
    exec(compile(library_tour(), "README.md (Library tour)", "exec"), names)
    assert capsys.readouterr().out == "True\n"
    assert isinstance(names["L"], np.ndarray) and names["L"].shape == (4, 4)
    decomp = names["decomp"]
    assert decomp.lambdas == (1, -1)
    assert abs(decomp.stable_spectral_radius - 0.4) <= 1e-12
