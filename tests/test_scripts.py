import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from cvn.graphs import theta_point
from cvn.metric import stretch

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


def test_walk_geodesic_prints_numbers_past_the_int_string_limit():
    # theta lengths of about 10^-1900: the stretch and the breakpoint
    # lengths have more than 4,300 digits, where str() of an int raises
    # ValueError
    n = 10 ** 1900
    a = [Fraction(1, n + 1), Fraction(1, n + 7), Fraction(1, 3)]
    b = [Fraction(1, n + 3), Fraction(1, n + 9), Fraction(1, 3)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "walk_geodesic.py"),
         "--a", *map(str, a), "--b", *map(str, b)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    first, *_, product, _ = res.stdout.splitlines()
    num, den = first.removeprefix("stretch(a, b) = ").split("/")
    lam = stretch(theta_point(*a), theta_point(*b))
    assert len(num) > 4300
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == lam
    assert product.endswith("(ok)")
