"""Builds falab's optional C scan kernel: python setup.py build_ext --inplace.

The extension is optional: without a C compiler the build skips it and
falab scans with its pure-Python kernel, falab._simkernel_py.
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("falab._simkernel", ["src/falab/_simkernel.c"],
                             optional=True)])
