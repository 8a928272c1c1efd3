"""The package's public surface: ``__all__`` and the names ``__init__`` binds agree."""

import types

import hctcodec


def test_every_exported_name_resolves():
    missing = [name for name in hctcodec.__all__ if not hasattr(hctcodec, name)]
    assert missing == []
    assert len(set(hctcodec.__all__)) == len(hctcodec.__all__)


def test_every_public_binding_is_exported():
    bound = {
        name for name, value in vars(hctcodec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound - set(hctcodec.__all__) == set()
