import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from teff import PowerLaw, parse_potential
from teff import potentials


@pytest.fixture(scope="session")
def run_python():
    """Runs ``python *args`` in a fresh interpreter that imports this
    checkout's teff, so a traceback or a warning would show on its stderr."""
    src = os.path.dirname(os.path.dirname(potentials.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=120)

    return run


@pytest.fixture(scope="session")
def coulomb():
    return PowerLaw(b=-1.0, mu=-1.0)


@pytest.fixture(scope="session")
def oscillator():
    # V = r^2 / 2, i.e. unit angular frequency
    return PowerLaw(b=0.5, mu=2.0)


@pytest.fixture(scope="session")
def yukawa():
    return parse_potential("screened:kind=exp,Z=1")


@pytest.fixture(scope="session")
def yukawa_table(tmp_path_factory):
    """Yukawa Z=2 sampled densely enough for interpolation-level accuracy."""
    r = np.geomspace(1e-4, 40.0, 4000)
    v = -2.0 * np.exp(-r) / r
    path = tmp_path_factory.mktemp("tables") / "yukawa2.dat"
    body = "# r V\n" + "\n".join(f"{ri:.16e} {vi:.16e}" for ri, vi in zip(r, v))
    path.write_text(body)
    return path


@pytest.fixture
def slice_counts(monkeypatch):
    """Counter of (potential spec, E) over the calls of analyze_slice, made
    through every teff module that binds it."""
    counts = Counter()
    original = potentials.analyze_slice

    def counted(p, E):
        counts[(p.spec_string(), E)] += 1
        return original(p, E)

    for name, module in list(sys.modules.items()):
        if name.startswith("teff.") and getattr(module, "analyze_slice", None) is original:
            monkeypatch.setattr(module, "analyze_slice", counted)
    return counts
