import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_walk_geodesic_writes_svg(tmp_path):
    out = tmp_path / "walk.svg"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "walk_geodesic.py"),
         "--svg", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert f"wrote {out}" in res.stdout
    svg = out.read_text()
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<svg ')
    assert svg.rstrip().endswith("</svg>")
    assert 'stroke-dasharray="6,3"' in svg  # the breakpoint overlay
