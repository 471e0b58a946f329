"""The public API takes no per-call numerical tolerances: each rule's
tolerance is a module constant."""

import inspect
import re

import qspoof

TOLERANCE_NAME = re.compile(r"(.+_)?(tol|eps)")


def public_functions():
    """Every public function, and every public method or classmethod of a public class."""
    for name in qspoof.__all__:
        obj = getattr(qspoof, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_no_public_tolerance_parameters():
    found = [
        (name, param)
        for name, fn in public_functions()
        for param in inspect.signature(fn).parameters
        if TOLERANCE_NAME.fullmatch(param)
    ]
    assert found == []
