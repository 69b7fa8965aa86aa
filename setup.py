"""Setup shim for environments without PEP 517 wheel support.

``pip install -e .`` in this offline environment lacks the ``wheel``
package, so ``python setup.py develop`` (or the .pth fallback) is the
supported editable-install path.

The version is read textually from ``src/repro/_version.py`` — the
package's single source of truth — rather than imported, so installing
does not require the package's dependencies to be importable.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"


def _read_version() -> str:
    match = re.search(
        r'^__version__\s*=\s*"([^"]+)"',
        _VERSION_FILE.read_text(),
        re.MULTILINE,
    )
    if match is None:
        raise RuntimeError(f"no __version__ in {_VERSION_FILE}")
    return match.group(1)


setup(
    name="repro",
    version=_read_version(),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # numpy 2 for np.bitwise_count; scipy for the FFT correlator and
    # the chip-error closed forms
    install_requires=["numpy>=2", "scipy"],
)
