"""Tests of the package API surface: ``repro`` and every subpackage."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_names_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_key_classes_exported(self):
        assert repro.IUpdater is not None
        assert repro.FingerprintMatrix is not None
        assert repro.OMPLocalizer is not None
        assert repro.SurveyCampaign is not None

    def test_environment_factories_exported(self):
        office = repro.office_environment()
        library = repro.library_environment()
        hall = repro.hall_environment()
        assert {office.name, library.name, hall.name} == {"office", "library", "hall"}

    def test_build_deployment_exported(self):
        spec = repro.office_environment(locations_per_link=4, link_count=4)
        deployment = repro.build_deployment(spec, seed=1)
        assert deployment.link_count == 4



PACKAGES = [
    "repro",
    *(
        f"repro.{name}"
        for name in (
            "core",
            "io",
            "service",
            "query",
            "daemon",
            "localization",
            "rf",
            "utils",
            "fingerprint",
            "simulation",
            "experiments",
            "environments",
        )
    ),
]


@pytest.mark.parametrize("module", PACKAGES)
class TestPackageExports:
    def test_all_names_resolve_and_are_listed(self, module):
        package = importlib.import_module(module)
        listing = dir(package)
        for export in package.__all__:
            assert getattr(package, export) is not None, export
            assert export in listing, f"{export} missing from dir({module})"

    def test_star_import(self, module):
        namespace = {}
        exec(f"from {module} import *", namespace)
        package = importlib.import_module(module)
        for export in package.__all__:
            assert namespace[export] is getattr(package, export)

    def test_unknown_name_raises_attribute_error(self, module):
        package = importlib.import_module(module)
        with pytest.raises(AttributeError, match=re.escape(f"'{module}'")):
            package.no_such_export


def test_experiments_figures_is_the_submodule():
    """In a fresh interpreter, so the lazy mapping resolves it, not the import system."""
    code = (
        "import sys, types, repro.experiments as e; "
        "assert 'repro.experiments.figures' not in sys.modules; "
        "assert isinstance(e.figures, types.ModuleType); "
        "assert e.figures is sys.modules['repro.experiments.figures']"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
