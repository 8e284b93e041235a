"""The committed figures under out/figures/ reproduce byte for byte, and the
example scripts run against the public API."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIGURES = ROOT / "out" / "figures"


def test_regen_figures_matches_committed(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "regen_figures.py"), str(tmp_path)],
        check=True,
        capture_output=True,
    )
    committed = sorted(p.name for p in FIGURES.iterdir())
    assert committed
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    for name in committed:
        assert (tmp_path / name).read_bytes() == (FIGURES / name).read_bytes(), name


# The sphere each family reaches has dimension parameter + offset.
SPHERE_OFFSET = {"El(K_": -2, "Cl(csusp^": 1, "I(isusp^": 0}


def test_sphere_zoo_prints_spheres():
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sphere_zoo.py")],
        check=True,
        capture_output=True,
        text=True,
    )
    families = "|".join(re.escape(f) for f in SPHERE_OFFSET)
    rows = re.findall(rf"^ +({families})(\d+)\S* +betti (\(.*\))$", run.stdout, re.M)
    assert len(rows) == 13
    for family, k, text in rows:
        betti = ast.literal_eval(text)
        sphere = [0] * len(betti)
        sphere[0] += 1
        sphere[int(k) + SPHERE_OFFSET[family]] += 1
        assert list(betti) == sphere, (family, k)
