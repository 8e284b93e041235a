"""The committed figures under out/figures/ reproduce byte for byte, and the
example scripts and the README's quick start run against the public API."""

import ast
import os
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


def test_readme_quick_start_prints_its_values():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", block],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
        capture_output=True,
        text=True,
    )
    assert run.stderr == ""
    assert run.stdout.splitlines() == [
        "PersistenceDiagram(dim=2, points=[DiagramPoint(birth=6.0, death=7.0, multiplicity=1)], essential=[])",
        "1",
        "1",
        "[[1, 1], [1, 1]]",
    ]
