"""The package's public names."""
import triline


def test_all_names_resolve_without_duplicates():
    # a name left in __all__ after its definition is gone fails here
    assert len(triline.__all__) == len(set(triline.__all__))
    assert [name for name in triline.__all__ if not hasattr(triline, name)] == []
