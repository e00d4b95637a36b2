"""Documentation/consistency checks across the package.

Cheap guards that keep the public surface documented and the README's
claims true as the code evolves.
"""

import importlib
import pathlib
import pkgutil

import pytest

import repro

SRC_ROOT = pathlib.Path(repro.__file__).parent
REPO_ROOT = SRC_ROOT.parent.parent


def iter_modules():
    for info in pkgutil.walk_packages([str(SRC_ROOT)], prefix="repro."):
        yield info.name


ALL_MODULES = sorted(iter_modules())


class TestDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_every_module_has_a_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20, module_name

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_public_classes_and_functions_documented(self, module_name):
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", None)
        if not exported:
            return
        undocumented = []
        for name in exported:
            obj = getattr(module, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{module_name}.{name}")
        assert not undocumented, undocumented


class TestPackageSurface:
    def test_lazy_top_level_exports(self):
        assert callable(repro.run_flat_experiment)
        assert callable(repro.run_hierarchical_experiment)
        with pytest.raises(AttributeError):
            _ = repro.nonexistent_attribute

    def test_version_matches_pyproject(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_core_reexports_everything_advertised(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_simnet_reexports_everything_advertised(self):
        import repro.simnet as simnet

        for name in simnet.__all__:
            assert hasattr(simnet, name), name


class TestReadmeClaims:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO_ROOT / "README.md").read_text()

    def test_every_listed_example_exists(self, readme):
        import re

        for match in re.finditer(r"python (examples/\w+\.py)", readme):
            assert (REPO_ROOT / match.group(1)).exists(), match.group(1)

    def test_every_listed_bench_exists(self, readme):
        import re

        for match in re.finditer(r"pytest (benchmarks/\w+\.py)", readme):
            assert (REPO_ROOT / match.group(1)).exists(), match.group(1)

    def test_quickstart_snippet_is_valid(self):
        # The README's quickstart API calls must exist with these names.
        from repro import run_flat_experiment

        result = run_flat_experiment(n_stages=10, cycles=4)
        assert result.mean_ms > 0
        assert set(result.phase_means_ms()) == {"collect", "compute", "enforce"}

    def test_design_doc_mentions_every_package(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for pkg in ("simnet", "core", "dataplane", "jobs", "monitoring",
                    "obs", "harness", "live", "chaos", "service", "store",
                    "guard"):
            assert pkg in design, pkg


class TestProtocolDocs:
    def test_frame_cap_docstring_matches_constant(self):
        # The module docstring once claimed a 4 GiB cap while MAX_FRAME
        # was 16 MiB; keep the prose tied to the constant.
        from repro.live import protocol

        assert protocol.MAX_FRAME == 16 * 1024 * 1024
        assert "16 MiB" in protocol.__doc__
        assert "4 GiB cap" not in protocol.__doc__
