import hashlib
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


# the stdout of scripts/ray_crossings.py with its defaults: three rational
# figure-eight rays of four crossings each and their pair dimensions
RAY_CROSSINGS_SHA256 = (
    "656e6d12f9665c9057fa25dc02f85c3c7de1302863c0dd7f877af18b891e3dff")


def test_ray_crossings_output_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ray_crossings.py")],
        env=env, capture_output=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()
    assert hashlib.sha256(res.stdout).hexdigest() == RAY_CROSSINGS_SHA256


# the stdout of scripts/ray_crossings.py on seven figure-eight rays: they
# take three IDEAL half steps between them, and the ray from 3/5 ends in
# WalkStuck
RAY_CROSSINGS_IDEAL_SHA256 = (
    "0a5a3f03cf3155280143502615ad7dfa616c6bbe4c2bc667f1369ccdbf79e6b0")


def test_ray_crossings_ideal_steps_output_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ray_crossings.py"),
         "--a", "5/8", "7/12", "13/21", "3/5", "8/13", "21/34", "4/7",
         "--steps", "4"],
        env=env, capture_output=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()
    assert b"a = 3/5: stuck" in res.stdout
    assert (hashlib.sha256(res.stdout).hexdigest()
            == RAY_CROSSINGS_IDEAL_SHA256)


# the stdout of scripts/walk_geodesic.py with its defaults: the two-phase
# walk between two theta points, its witnesses, multiplicativity and the
# verdict "fully rigid: False"
WALK_GEODESIC_SHA256 = (
    "af3d610a6c62725d249706983a99f0efe97899ffae2fd73d4fbb7cdbcda21c78")


def test_walk_geodesic_output_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "walk_geodesic.py")],
        env=env, capture_output=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr.decode()
    assert b"fully rigid: False" in res.stdout
    assert hashlib.sha256(res.stdout).hexdigest() == WALK_GEODESIC_SHA256
