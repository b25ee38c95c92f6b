"""Set-up shared by the test modules."""

import os
from pathlib import Path

# pyproject's ``pythonpath`` puts src/ on this process's sys.path only; the
# CLI tests also start ``python -m spps.cli``, which needs it in PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
