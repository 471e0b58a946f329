"""The public API takes no per-call numerical tolerances: each rule's
tolerance is a module constant.  Nor does it take other defaulted knobs:
the ROC threshold grid is the one parameter a caller may leave out."""

import dataclasses
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


def test_only_the_roc_grid_is_a_defaulted_public_parameter():
    # a solver limit, a grid size or a field the data already fixes is a
    # constant or a derived value, not a knob of the public API
    defaulted = [
        (name, param.name)
        for name, fn in public_functions()
        for param in inspect.signature(fn).parameters.values()
        if param.default is not inspect.Parameter.empty
    ]
    assert defaulted == [("roc_sweep", "tau_grid")]
    assert [f.name for f in dataclasses.fields(qspoof.KrausChannel) if f.init] == ["operators"]
    assert [f.name for f in dataclasses.fields(qspoof.ProjectorMeasurement) if f.init] == ["matrix"]
