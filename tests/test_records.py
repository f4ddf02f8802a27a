"""The package's records and what each command loads.

The value records are ``core.Frozen`` subclasses: immutable, and compared
and hashed by identity.  No module of the package imports ``dataclasses``, whose import
alone loads ``inspect``, ``ast`` and ``dis`` into every command's start-up.
Only a reduction loads ``realizers``, and no command loads ``importlib.resources``
or ``pathlib``.  The modules are counted in an interpreter started with ``-S``:
a ``.pth`` file in site-packages may import any of them before the package does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cantorlab.cli import RunOptions
from cantorlab.core import Frozen
from cantorlab.deficiency import Stream
from cantorlab.enumeration import Budgets

SRC = Path(__file__).resolve().parents[1] / "src"


UNUSED_AT_START = ("cantorlab.realizers", "importlib.resources", "pathlib", "tempfile",
                   "dataclasses", "inspect")

# In one fresh interpreter: which of UNUSED_AT_START ``import cantorlab.cli``
# loads, then whether ``realizers`` is loaded after a construction's run and
# verify and list-constructions, and after a reduction's run.
LOADS = """\
import sys
import cantorlab.cli
print(*(m for m in sys.argv[3:] if m in sys.modules), sep=",")
import contextlib, io
main, scenario, trace = cantorlab.cli.main, sys.argv[1], sys.argv[2]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["run", "--scenario", scenario, "--select", "lemma31", "--trace", trace]),
             main(["verify", "--trace", trace]), main(["list-constructions"])]
    after = "cantorlab.realizers" in sys.modules
    codes.append(main(["run", "--scenario", scenario, "--select", "lay_to_lay",
                       "--trace", trace]))
print(codes, after, "cantorlab.realizers" in sys.modules)
"""


@pytest.fixture(scope="module")
def loads(tmp_path_factory):
    """The two output lines of ``LOADS`` under ``python -S``."""
    scenario = SRC / "cantorlab" / "scenarios" / "main.json"
    trace = tmp_path_factory.mktemp("loads") / "t.jsonl"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", LOADS, str(scenario), str(trace),
                          *UNUSED_AT_START], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def test_cli_import_loads_neither_dataclasses_nor_inspect(loads):
    assert loads[0] == ""


def test_only_a_reduction_loads_realizers(loads):
    assert loads[1] == "[0, 0, 0, 0] False True"


# (a record, an equal one built by keyword, one that differs in one field)
FROZEN = [
    (Stream("x", "01", "1"), Stream(name="x", pad="01", period="1"),
     Stream("x", "01", "10")),
    (Budgets(2, 8, 8, 4), Budgets(max_index=2, max_stage=8, max_depth=8, max_layers=4),
     Budgets(2, 8, 8, 5)),
    (Budgets(1, 8, 8, 4), Budgets(max_index=1, max_stage=8, max_depth=8, max_layers=4),
     Budgets(1, 9, 8, 4)),
    (RunOptions(None, None, 1), RunOptions(grace=None, sigma_stages=None, stride=1),
     RunOptions(None, 8, 1)),
]


def _fields(record):
    return [getattr(record, name) for name in record.__slots__]


@pytest.mark.parametrize("a, same, other", FROZEN)
def test_frozen_records(a, same, other):
    """Positional and keyword construction set the same fields; a record
    is equal only to itself."""
    assert isinstance(a, Frozen)
    assert _fields(a) == _fields(same) and _fields(a) != _fields(other)
    assert a == a and a != same
    for name in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1


def test_stream_head_is_no_field():
    """A stream's first 64 bits, the integer slot ``_head``, are private:
    the public fields are the three its constructor takes."""
    x = Stream("x", "01", "1")
    assert [n for n in x.__slots__ if not n.startswith("_")] == ["name", "pad", "period"]
    assert x._head == int("01" + "1" * 62, 2)
    assert Stream("y", "1" * 80, "0")._head == (1 << 64) - 1


def test_stream_validates_at_construction():
    with pytest.raises(ValueError, match="non-empty period"):
        Stream("x", "01", "")
    with pytest.raises(ValueError, match="binary"):
        Stream("x", "0a", "1")
