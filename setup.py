"""Setuptools shim: the package is declared in ``setup.cfg``.

``pip install -e .`` needs the ``wheel`` package and, without
``--no-build-isolation``, network access to fetch setuptools into its
build environment; offline and without ``wheel`` it fails with
``invalid command 'bdist_wheel'``.  There, ``python setup.py develop``
installs the same editable package.
"""

from setuptools import setup

setup()
