"""The committed figures under out/figures/ reproduce byte for byte."""

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
