"""Builds falab's optional C kernel: python setup.py build_ext --inplace.

The kernel scans byte streams for falab.Simulator, walks subsets for
falab.transform's determinization, and flips and refines the walked
tables for its minimizers.  The extension is optional: without a C
compiler the build skips it and falab runs all of that in its
pure-Python kernel, falab._simkernel_py.  build_ext is forced, so every
build compiles the kernel from the source in this checkout, even where a
.so newer than that source is already in place; falab.transform ignores,
with a RuntimeWarning, a .so built for another program format.
"""
from setuptools import Extension, setup

setup(ext_modules=[Extension("falab._simkernel", ["src/falab/_simkernel.c"],
                             optional=True)],
      options={"build_ext": {"force": True}})
