"""The ``words.Frozen`` contract, checked on every subclass in the package.

A Frozen class's fields are the names it annotates in its own body, in
order.  Classes that use ``Frozen.__init__`` take every field by position
or by name, with no defaults; every class refuses a missing, unknown or
repeated field, and every instance refuses assignment and deletion.
"""

import importlib
import inspect
import pkgutil

import pytest

import sclkit
from sclkit.braids import braid
from sclkit.words import Frozen, word

# the records and value types the package defines
EXPECTED = {
    "CheckResult", "VerificationReport", "SectionData", "ExtensionResult",
    "DefectChainReport", "GroupHom", "FragmentationResult",
    "NormAxiomReport", "Quasimorphism", "DefectSearchResult", "GroupPair",
    "MixedCommutatorDecomposition", "ClSearchResult", "SclCertificate",
    "Item", "ItemResult", "SuiteReport", "Word", "BraidWord", "GarsideNormalForm",
    "P3Coordinates", "CertifiedValue",
}

# valid instances of the classes that validate in their own __init__
SAMPLES = {"Word": lambda: word("ab"), "BraidWord": lambda: braid("1,-2", 3)}


def _frozen_classes() -> list[type]:
    """Every Frozen subclass bound in a module of the package (``__main__``
    would run the command line)."""
    modules = [importlib.import_module(f"sclkit.{info.name}")
               for info in pkgutil.iter_modules(sclkit.__path__)
               if info.name != "__main__"]
    found = {c for m in modules for c in vars(m).values()
             if isinstance(c, type) and issubclass(c, Frozen) and c is not Frozen}
    return sorted(found, key=lambda c: c.__qualname__)


CLASSES = _frozen_classes()


def test_every_record_and_value_type_is_frozen():
    assert EXPECTED <= {c.__qualname__ for c in CLASSES}


def _instance(cls):
    if cls.__qualname__ in SAMPLES:
        return SAMPLES[cls.__qualname__]()
    return cls(*range(len(cls._fields)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_fields_are_the_own_annotations_in_order(cls):
    assert cls._fields == tuple(inspect.get_annotations(cls))
    assert cls._fields


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if c.__init__ is Frozen.__init__], ids=lambda c: c.__qualname__
)
def test_position_and_keyword_build_equal_values(cls):
    values = [f"value-{i}" for i in range(len(cls._fields))]
    by_position = cls(*values)
    by_name = cls(**dict(zip(cls._fields, values)))
    mixed = cls(values[0], **dict(zip(cls._fields[1:], values[1:])))
    assert by_position == by_name == mixed
    assert hash(by_position) == hash(by_name) == hash(mixed)
    assert [getattr(by_name, f) for f in cls._fields] == values
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
    assert repr(by_name) == f"{cls.__qualname__}({shown})"
    other = cls(*values[:-1], "another")
    assert other != by_position
    assert by_position != tuple(values)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_a_missing_unknown_or_repeated_field_is_a_type_error(cls):
    values = list(range(len(cls._fields)))
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(*values, no_such_field=0)
    with pytest.raises(TypeError):
        cls(*values, **{cls._fields[0]: 0})
    with pytest.raises(TypeError):
        cls(*values, 0)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__qualname__)
def test_fields_are_read_only(cls):
    obj = _instance(cls)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.no_such_field = 0
