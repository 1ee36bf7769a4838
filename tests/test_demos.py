"""Every demo script runs to completion against this checkout and prints
the same bytes it printed when its output was pinned."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# sha256 of each demo's stdout; every demo prints the same bytes run to run
STDOUT_SHA256 = {
    "compare_methods.py": "a356198510e14fafedaa1d96242f39b00df95068a14d32e03cc43bad413adb40",
    "level_annual_plan.py": "805751771dbde43da264a4e33ac0c778810f654174af6b6bbf21af85b66b97d2",
    "oracle_check.py": "c792a9437c1cf2a2ab93342932fffba82ec2b1307d4876c59d33eff8ea09b28a",
    "select_repair_items.py": "42a1c4df4bbf305827145044591bd696b469dbd39d5cf7da0715e49da51b0311",
    "standard_form_export.py": "73fac71dbd0261a14577d68a9ed3aa8b8be180b91344e1bb53f59e68e54e7abe",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo: Path):
    cp = subprocess.run([sys.executable, str(demo)], capture_output=True, timeout=120)
    assert cp.returncode == 0, cp.stderr.decode(errors="replace")
    assert hashlib.sha256(cp.stdout).hexdigest() == STDOUT_SHA256[demo.name]
