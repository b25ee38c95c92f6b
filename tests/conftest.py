"""Set-up shared by the test modules."""

import os
from collections import defaultdict
from pathlib import Path

import pytest

# pyproject's ``pythonpath`` puts src/ on this process's sys.path only; the
# CLI tests also start ``python -m spps.cli``, which needs it in PYTHONPATH
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def terms_read(monkeypatch):
    """A dict from (alpha, k) to the numbers of terms that the stopped sums
    of S_{k,alpha} read, one per call of the sum kernel."""
    import spps.powers
    import spps.spectral
    read, original = defaultdict(list), spps.powers._series_sums

    def recording(table, lam, alpha=0):
        out = original(table, lam, alpha)
        for k, count in enumerate(out[3], start=1):
            read[alpha, k].append(count)
        return out

    for module in (spps.powers, spps.spectral):  # each binds the kernel
        monkeypatch.setattr(module, "_series_sums", recording)
    return read
