"""Package metadata for ``pip install -e . --no-build-isolation``.

There is no ``pyproject.toml``: this file is the only metadata source.
The environment has no ``wheel`` package, so PEP 517 isolated builds
cannot run; ``--no-build-isolation`` (or ``PYTHONPATH=src``, which
every script and test here uses) avoids them.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
