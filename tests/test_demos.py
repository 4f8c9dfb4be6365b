"""The demos run end to end and print what they printed when recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_REDUCTIONS_SHA256 = ("0707f06fe2dd0a9dcf7682590989f41b"
                      "9d3a8830adc87265c604a523b2102615")


def test_demo_reductions_output_is_pinned():
    """The reductions demo walks every catalog entry: it builds and checks
    each reduced system and prints one case in full."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(ROOT / "demos" / "demo_reductions.py")],
                         cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert res.returncode == 0, res.stderr.decode()
    assert hashlib.sha256(res.stdout).hexdigest() == _REDUCTIONS_SHA256
