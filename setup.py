"""Builds falab's optional C scan kernel: python setup.py build_ext --inplace.

The extension is optional: without a C compiler the build skips it and
falab scans with its pure-Python kernel, falab._simkernel_py.  build_ext
skips an extension whose .so is newer than its source, so add --force
when that .so may come from another source (a checkout switch, a
restored file); falab.simulate ignores, with a RuntimeWarning, a .so
built for another program format.
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("falab._simkernel", ["src/falab/_simkernel.c"],
                             optional=True)])
