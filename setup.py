"""Development-install configuration for the reproduction package.

Install in editable mode with ``pip install -e .`` (or, in environments
without the ``wheel`` package that PEP 660 editable installs require,
``pip install -e . --no-build-isolation``).

The package is dependency-free by design: the simulation engines, the
service and every figure pipeline run on the standard library alone.
"""

from setuptools import find_packages, setup

setup(
    name="repro-bp-isolation",
    description="Reproduction of branch-predictor isolation experiments",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=[],
)
