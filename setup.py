"""Package metadata and declared dependencies.

Runtime: NumPy and SciPy (MIC's pivoted QR, the SVR baseline's L-BFGS and
the optional truncated-SVD start).  Extras: ``test`` (pytest, hypothesis)
for the test suite and ``bench`` (pytest-benchmark) for timed benchmark
rounds, which skip without it.  ``pip install -e . --no-use-pep517`` gives a
legacy editable install in offline environments that lack ``wheel``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"

setup(
    name="repro",
    version=re.search(r'__version__ = "([^"]+)"', INIT.read_text()).group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    extras_require={
        "test": ["pytest", "hypothesis"],
        "bench": ["pytest-benchmark"],
    },
)
