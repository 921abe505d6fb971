"""Setuptools shim.

Kept so that the package remains installable in fully offline environments
where the ``wheel`` package is unavailable and PEP 660 editable installs
cannot be built (``pip install -e . --no-use-pep517 --no-build-isolation``
falls back to the legacy ``setup.py develop`` path).  All project metadata
lives in ``pyproject.toml``.
"""

from setuptools import find_packages, setup

# Kept in lockstep with ``repro.__version__`` (asserted by the test suite).
VERSION = "1.9.0"

setup(
    name="ff-int8-repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
