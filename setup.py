"""Builds falab's optional C kernel: python setup.py build_ext --inplace.

The kernel scans byte streams for falab.Simulator and walks subsets for
falab.transform's determinization.  The extension is optional: without a
C compiler the build skips it and falab runs both in its pure-Python
kernel, falab._simkernel_py.  build_ext skips an extension whose .so is
newer than its source, so add --force when that .so may come from
another source (a checkout switch, a restored file); falab.transform
ignores, with a RuntimeWarning, a .so built for another program format.
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("falab._simkernel", ["src/falab/_simkernel.c"],
                             optional=True)])
