"""The package's records and what ``import cantorlab.cli`` loads.

The value records are ``core.Frozen`` subclasses: immutable, hashable and
equal field by field.  No module of the package imports ``dataclasses``, whose import
alone loads ``inspect``, ``ast`` and ``dis`` into every command's start-up.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from cantorlab.core import Frozen
from cantorlab.deficiency import Stream
from cantorlab.enumeration import Budgets

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, cantorlab.cli\n"
            "print(*(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


# (a record, an equal one built by keyword, one that differs in one field)
FROZEN = [
    (Stream("x", "01", "1"), Stream(name="x", pad="01", period="1"),
     Stream("x", "01", "10")),
    (Budgets(2, 8, 8, 4), Budgets(max_index=2, max_stage=8, max_depth=8, max_layers=4),
     Budgets(2, 8, 8, 5)),
    (Budgets(1, 8, 8, 4), Budgets(max_index=1, max_stage=8, max_depth=8, max_layers=4),
     Budgets(1, 9, 8, 4)),
]


@pytest.mark.parametrize("a, same, other", FROZEN)
def test_frozen_records(a, same, other):
    assert isinstance(a, Frozen)
    assert a == same and hash(a) == hash(same) and a != other
    for name in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith(f"{type(a).__name__}({a.__slots__[0]}=")


def test_records_compare_by_type():
    assert Budgets(1, 8, 8, 4) != (1, 8, 8, 4)
    assert len({Budgets(1, 8, 8, 4), Budgets(1, 8, 8, 4),
                Budgets(1, 8, 8, 5)}) == 2


def test_stream_validates_at_construction():
    with pytest.raises(ValueError, match="non-empty period"):
        Stream("x", "01", "")
    with pytest.raises(ValueError, match="binary"):
        Stream("x", "0a", "1")
