"""Fixtures that select the kernel that scans and walks subsets.

``c_kernel`` is the compiled ``falab._simkernel`` that ``transform``
loads.  When there is none (the extension was never built with
``python setup.py build_ext --inplace``, or ``transform`` refused a module
built for another program ``FORMAT``), the fixture compiles
``src/falab/_simkernel.c`` into a temporary directory with the installed
setuptools and loads it from there, without registering it in
``sys.modules``.  Tests that need it skip only when no C compiler is
found.  ``cli_with_python_kernel`` runs the CLI where the compiled kernel
cannot be imported at all.
"""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from falab import _simkernel_py, transform

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCE = SRC / "falab/_simkernel.c"
KERNELS = ("python", "c")

# falab's CLI in an interpreter where falab._simkernel does not import, so
# transform loads the Python kernel for every scan and subset walk.
PYTHON_KERNEL_CLI = """
import sys
sys.modules["falab._simkernel"] = None
from falab import _simkernel_py, transform
from falab.cli import main
assert transform._kernel is _simkernel_py
sys.exit(main(sys.argv[1:]))
"""


def cli_with_python_kernel(argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``falab argv`` on the Python kernel, in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", PYTHON_KERNEL_CLI, *argv],
                          env={"PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True)


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
    if transform._simkernel is not None:
        return transform._simkernel
    c_compiler()
    return build_c_kernel(tmp_path_factory.mktemp("simkernel"))


def kernel_module(request, name: str):
    """The kernel module called ``name`` (see ``KERNELS``)."""
    return (_simkernel_py if name == "python"
            else request.getfixturevalue("c_kernel"))


def use_kernel(request, patch, name: str):
    """Scan and walk subsets with the kernel called ``name``: it becomes
    ``transform._kernel``, the one name every scan and walk calls."""
    module = kernel_module(request, name)
    patch.setattr(transform, "_kernel", module)
    return module


@pytest.fixture(scope="class")
def class_kernel(request):
    """Scan with the kernel named by the test class's ``KERNEL``."""
    with pytest.MonkeyPatch.context() as patch:
        yield use_kernel(request, patch, request.cls.KERNEL)


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    """Scan and walk subsets with each kernel in turn."""
    return use_kernel(request, monkeypatch, request.param)
