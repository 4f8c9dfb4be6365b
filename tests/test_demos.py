"""The demos run end to end and print what they printed when recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout
_DEMO_SHA256 = {
    "algebra_tables": "828f82ec7c5bbb21387fd406b562780b0042fa725c99d09190c3496f8eff442e",
    "critical_velocity": "bc1dbf444f741de6d313dab1a22aa9def6b009b5e920227ac1635ed6323ab1c2",
    "homogeneous_instability": "5d566b9e331ebcd870a0c458c50410a41e9c218608d2cdf97d46a3f500ad74e2",
    "reductions": "0707f06fe2dd0a9dcf7682590989f41b9d3a8830adc87265c604a523b2102615",
    "symmetries": "ab25d6a4950c781a42a85b68d027ea697c5e15d0ef11d71df7c580e2cb4e6c66",
    "traveling_wave": "9974bda9886081c66474de5a7fb6223fdb365f293824201895df32b4cd018cc5",
}


@pytest.mark.parametrize("name", sorted(_DEMO_SHA256))
def test_demo_output_is_pinned(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(ROOT / "demos" / f"demo_{name}.py")],
                         cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert res.returncode == 0, res.stderr.decode()
    assert hashlib.sha256(res.stdout).hexdigest() == _DEMO_SHA256[name]
