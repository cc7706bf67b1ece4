"""Setuptools shim.

The package metadata lives in the declarative ``pyproject.toml``.  This
shim keeps the legacy ``python setup.py develop`` editable install
working on hosts without network access and without the ``wheel``
package, which the PEP 660 editable path of older setuptools needs.
"""

from setuptools import setup

setup()
