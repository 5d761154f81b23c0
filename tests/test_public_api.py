"""The package's public names: ``modalbayes.__all__`` lists exactly what ``__init__`` exports."""

import types

import modalbayes


def test_every_listed_name_resolves():
    for name in modalbayes.__all__:
        assert hasattr(modalbayes, name), name


def test_all_lists_every_public_binding():
    bound = {name for name, value in vars(modalbayes).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    listed = set(modalbayes.__all__) - {"__version__"}
    assert len(modalbayes.__all__) == len(set(modalbayes.__all__))
    assert listed == bound
