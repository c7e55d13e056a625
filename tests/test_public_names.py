"""``flagrep.__all__`` lists exactly the public names the package binds, each
once, so that the import block of ``flagrep/__init__.py`` and ``__all__``
cannot drift apart.  A public name has no leading underscore and is not a
submodule: ``flagrep.cartan`` is bound as a side effect of importing it.
"""

import types

import flagrep


def test_all_lists_each_public_name_once():
    public = {
        name
        for name, value in vars(flagrep).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(flagrep.__all__) == sorted(public)
    assert len(flagrep.__all__) == len(set(flagrep.__all__))
