"""Build script: the pure-Python package plus the optional native planner.

``repro._native`` (src/repro/_native.c) is the compiled twin of the
Sunflow scheduling loop and of the shortest-first ordering scan, and runs
by default whenever it is built (``repro.backend`` resolves the choice).
It is strictly optional: when no C compiler is available the build warns
and continues, and the default backend is the pure-Python loop, with no
warning — every test and benchmark still runs, just slower.

``-ffp-contract=off`` is required for correctness, not taste: the planner
promises reservations bit-identical to the Python loop, and fused
multiply-adds would change roundings.
"""

import sys
import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


if sys.platform == "win32":
    _NATIVE_CFLAGS = []
else:
    _NATIVE_CFLAGS = ["-O2", "-ffp-contract=off"]


class optional_build_ext(build_ext):
    """Build the native planner if possible; warn and skip otherwise."""

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # toolchain missing/broken: stay pure-Python
            warnings.warn(
                f"could not build optional extension {ext.name} ({exc!r}); "
                "the pure-Python planner will be used "
                "(REPRO_KERNEL=native will warn once and do the same)",
                RuntimeWarning,
            )


setup(
    ext_modules=[
        Extension(
            "repro._native",
            sources=["src/repro/_native.c"],
            extra_compile_args=_NATIVE_CFLAGS,
            optional=True,
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
