import importlib

import longmem

MODULES = ("series", "scaling", "hurst", "dcca", "network", "synthetic",
           "errors")


def test_all_is_the_modules_lists_in_order():
    modules = [importlib.import_module(f"longmem.{m}") for m in MODULES]
    want = ["__version__"] + [n for mod in modules for n in mod.__all__]
    assert longmem.__all__ == want
    assert len(set(longmem.__all__)) == len(longmem.__all__)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(longmem, name) is getattr(mod, name), name
