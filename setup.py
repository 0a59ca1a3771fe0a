"""Setuptools packaging for the Chain-NN reproduction library.

The library itself needs only NumPy::

    pip install -e .
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'__version__ = "([^"]+)"',
                     _INIT.read_text(encoding="utf-8")).group(1)

setup(
    name="repro-chain-nn",
    version=_VERSION,
    description=("Reproduction of Chain-NN (DATE 2017): an energy-efficient "
                 "1D chain architecture for accelerating deep convolutional "
                 "neural networks"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    entry_points={
        "console_scripts": ["repro = repro.cli:main"],
    },
)
