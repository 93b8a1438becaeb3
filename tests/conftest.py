"""Fixtures that select the scan kernel.

``c_kernel`` is the compiled ``falab._simkernel`` that ``simulate``
scans with.  When there is none (the extension was never built with
``python setup.py build_ext --inplace``, or ``simulate`` refused a module
built for another program ``FORMAT``), the fixture compiles
``src/falab/_simkernel.c`` into a temporary directory with the installed
setuptools and loads it from there, without registering it in
``sys.modules``.  Tests that need it skip only when no C compiler is
found.
"""

import importlib.util
import os
import shlex
import shutil
import sysconfig
from pathlib import Path

import pytest

from falab import _simkernel_py, simulate

SOURCE = Path(__file__).resolve().parent.parent / "src/falab/_simkernel.c"
KERNELS = ("python", "c")


def build_c_kernel(directory: Path):
    """Compile the kernel into ``directory`` and load it."""
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    ext = Extension("falab._simkernel", [str(SOURCE)])
    cmd = build_ext(Distribution({"ext_modules": [ext]}))
    cmd.build_lib = str(directory)
    cmd.build_temp = str(directory / "temp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location(
        ext.name, cmd.get_ext_fullpath(ext.name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def c_compiler() -> list[str]:
    """The C compiler command extensions are built with; skip without one."""
    cc = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC")
                     or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler found ({cc[0]!r} is not on PATH), "
                    f"so falab._simkernel cannot be built")
    return cc


@pytest.fixture(scope="session")
def c_kernel(tmp_path_factory):
    if simulate._simkernel is not None:
        return simulate._simkernel
    c_compiler()
    return build_c_kernel(tmp_path_factory.mktemp("simkernel"))


def kernel_module(request, name: str):
    """The kernel module called ``name`` (see ``KERNELS``)."""
    return (_simkernel_py if name == "python"
            else request.getfixturevalue("c_kernel"))


@pytest.fixture(scope="class")
def class_kernel(request):
    """Scan with the kernel named by the test class's ``KERNEL``."""
    module = kernel_module(request, request.cls.KERNEL)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_kernel", module)
        yield module


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    """Scan with each kernel in turn."""
    module = kernel_module(request, request.param)
    monkeypatch.setattr(simulate, "_kernel", module)
    return module
