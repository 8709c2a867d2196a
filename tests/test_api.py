"""The public API surface: parameters that have one source of truth."""

import inspect

import catloop

# the pluggable components carry their own radii; everything else scores
# with the covalent radii table
RADII_OWNERS = {"MutationGenerator", "PairPotentialSurrogate"}
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
