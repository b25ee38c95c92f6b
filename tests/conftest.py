"""Set-up shared by the test modules."""

import os
from pathlib import Path

import pytest

# pyproject's ``pythonpath`` puts src/ on this process's sys.path only; the
# CLI tests also start ``python -m spps.cli``, which needs it in PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def terms_read(monkeypatch):
    """A list that gets the number of terms each stopped series sum reads."""
    import spps.powers
    read, original = [], spps.powers._stopped_sum

    def recording(*args):
        out = original(*args)
        read.append(out[2])
        return out

    monkeypatch.setattr(spps.powers, "_stopped_sum", recording)
    return read
