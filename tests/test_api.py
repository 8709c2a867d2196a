"""The public API surface: parameters that have one source of truth."""

import dataclasses
import inspect
from pathlib import Path

import pytest

import catloop

# every component reads the covalent radii table; none carries its own radii
RADII_OWNERS: set[str] = set()
# the z-score epsilon is a GrpoConfig field and an argument of the advantages
EPSILON_OWNERS = {"GrpoConfig", "group_advantages"}


def public_signatures():
    """(qualified name, signature) of every public callable in `catloop.__all__`."""
    for name in catloop.__all__:
        obj = getattr(catloop, name)
        if not callable(obj):
            continue
        try:
            yield name, name, inspect.signature(obj)
        except ValueError:  # exception classes have no signature
            pass
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and not attr.startswith("_"):
                    yield name, f"{name}.{attr}", inspect.signature(member)


def test_public_api_has_no_stray_radii_or_epsilon():
    seen = 0
    for owner, qualname, sig in public_signatures():
        seen += 1
        params = set(sig.parameters)
        assert "default_epsilon" not in params, qualname
        if owner not in RADII_OWNERS:
            assert "radii" not in params, qualname
        if owner not in EPSILON_OWNERS:
            assert "epsilon" not in params, qualname
    assert seen > len(catloop.__all__) // 2


# every config dataclass in the public API, with the arguments it requires
CONFIG_CLASSES = {
    "RewardWeights": {},
    "PhysConfig": {},
    "GrpoConfig": {},
    "MmtgConfig": {},
    "SearchConfig": {"target_energy": -2.5, "target_composition": {"Cu": 4}},
    "DefectRates": {},
}


@pytest.mark.parametrize("name", CONFIG_CLASSES)
def test_config_numbers_reject_bools_and_strings(name):
    assert name in catloop.__all__
    cls, required = getattr(catloop, name), CONFIG_CLASSES[name]
    numeric = [f for f in dataclasses.fields(cls) if f.type in ("int", "float")]
    assert numeric
    for f in numeric:
        value = required.get(f.name, f.default)
        # the bool equal to a 0 or 1 value slips past every range check
        bad = [True, "1"] + ([bool(value)] if value in (0, 1) else [])
        for v in bad:
            with pytest.raises((TypeError, ValueError)):
                cls(**{**required, f.name: v})


# setuptools 65 flags its whole `[tool.setuptools]` table as beta
@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`")
def test_package_version_has_one_source():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = pyprojecttoml.read_configuration(path, expand=True)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == catloop.__version__
