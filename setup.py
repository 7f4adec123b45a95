"""Setuptools shim.

All project metadata lives in ``pyproject.toml``.  Where ``pip install -e .``
cannot build an editable wheel (a setuptools older than 70.1 without the
``wheel`` package, and no network to fetch it), ``python setup.py develop``
installs the same metadata through this shim.
"""

from setuptools import setup

setup()
