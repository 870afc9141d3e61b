"""Packaging checks: the ``repro`` console script must resolve.

The entry point declared in pyproject.toml is what ``pip install``
turns into the ``repro`` command; this test keeps the declaration and
the target callable from drifting apart without requiring the package
to be installed.  The package must also import without scipy, which
only the scalar searches load.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


def _console_scripts() -> dict[str, str]:
    """Parse ``[project.scripts]`` (tomllib on 3.11+, regex fallback)."""
    text = PYPROJECT.read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        match = re.search(
            r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)",
            text,
            re.MULTILINE | re.DOTALL,
        )
        assert match, "pyproject.toml has no [project.scripts] table"
        scripts = {}
        for line in match.group(1).splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            scripts[key.strip().strip('"')] = value.strip().strip('"')
        return scripts
    return tomllib.loads(text).get("project", {}).get("scripts", {})


def test_repro_entry_point_is_declared():
    scripts = _console_scripts()
    assert "repro" in scripts, "no `repro` console script in pyproject.toml"
    assert scripts["repro"] == "repro.cli:main"


def test_repro_entry_point_resolves_to_a_callable():
    target = _console_scripts()["repro"]
    module_name, _, attribute = target.partition(":")
    module = importlib.import_module(module_name)
    function = getattr(module, attribute)
    assert callable(function)
    # The wrapper pip generates calls it with no arguments and passes the
    # return value to sys.exit(); argv=None must therefore be accepted.
    import inspect

    signature = inspect.signature(function)
    assert all(
        parameter.default is not inspect.Parameter.empty
        or parameter.kind
        in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        for parameter in signature.parameters.values()
    ), "entry point must be callable with zero arguments"


def test_package_discovery_covers_src_layout():
    text = PYPROJECT.read_text(encoding="utf-8")
    assert '[tool.setuptools.packages.find]' in text
    assert 'where = ["src"]' in text


def test_import_leaves_scipy_unloaded():
    """``scipy.optimize`` is most of the import time, so the package,
    its CLI, service and jobs modules import it only on use."""
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.jobs.manager, repro.service.server\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_every_public_name_resolves():
    """Each name a module lists in ``__all__`` exists (what ruff's F822
    checks), so a deleted function cannot linger as a stale export."""
    import pkgutil

    import repro

    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not missing, missing
    assert sum(len(getattr(m, "__all__", ())) for m in modules) > 400
