"""The package's records: value equality, hashing, refused assignment,
validation and pickling; and a start-up that loads no code generator."""

import json
import os
import pickle
import re
import subprocess
import sys

import pytest

from lrckit import (BoundError, BoundReport, CodeParams, LocalStructure,
                    VerifyReport, cutset_bound, field_make, mr_r12,
                    mr_rdelta2, pmr_general_a1, pmr_parity_split)

GF13 = field_make(13)

# name -> (class, positional arguments, keyword arguments); each set is valid
RECORDS = {
    "BoundReport": (BoundReport, ("x", {"n": 3}, 2),
                    {"formula": "n - 1", "detail": {"i": 1}}),
    "CodeParams": (CodeParams, (7, 4), {"d_min": 3, "q": 2, "role": "MDS"}),
    "LocalStructure": (LocalStructure, (((0, 1, 2), (3, 4, 5)),),
                       {"delta": 2}),
    "VerifyReport": (VerifyReport, ("pmds", False, "exhaustive"),
                     {"witness": [0, 1], "budgets": {"checked": 4}}),
}
MUTABLE = {"VerifyReport"}
UNHASHABLE = {"BoundReport"}  # its inputs and detail are dicts


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality_hash_and_pickle(name):
    cls, args, kwargs = RECORDS[name]
    a, b = cls(*args, **kwargs), cls(*args, **kwargs)
    assert a == b and not a != b and a is not b
    # not a tuple: no == with one, no iteration, no JSON list
    assert a != tuple(vars(a).values())
    with pytest.raises(TypeError):
        iter(a)
    with pytest.raises(TypeError):
        json.dumps(a)
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith(f"{name}(") and repr(a) == repr(b)
    if name in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    elif name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", sorted(set(RECORDS) - MUTABLE))
def test_frozen_record_refuses_assignment(name):
    cls, args, kwargs = RECORDS[name]
    a = cls(*args, **kwargs)
    field = next(iter(vars(a)))
    before = vars(a)[field]
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        a.unknown = 1
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert vars(a)[field] is before and "unknown" not in vars(a)


def test_record_positional_order_and_defaults():
    assert vars(CodeParams(7, 4)) == dict(n=7, k=4, r=None, t=None,
                                          d_min=None, q=None, role=None)
    assert CodeParams(7, 4, 2, 1, 3, 2, "LR").as_dict() == dict(
        n=7, k=4, r=2, t=1, d_min=3, q=2, role="LR")
    assert CodeParams(7, 4, role="LR").as_dict() == {"n": 7, "k": 4,
                                                    "role": "LR"}
    assert vars(BoundReport("x", {}, 1)) == dict(
        name="x", inputs={}, value=1, formula="", detail={})
    assert LocalStructure(((0,),)).delta == 1
    assert CodeParams(7, 4) != CodeParams(7, 3)
    assert CodeParams(7, 4) != CodeParams(7, 4, role="LR")


def test_default_dicts_are_not_shared():
    one, two = VerifyReport("x", True, "exhaustive"), \
        VerifyReport("x", True, "exhaustive")
    one.budgets["checked"] = 1
    one.detail["k"] = 2
    assert two.budgets == {} and two.detail == {}
    first, second = BoundReport("x", {}, 1), BoundReport("x", {}, 1)
    assert first.detail == {} and first.detail is not second.detail
    one.verdict = False  # a report stays mutable
    assert one != two


# each validation a record's __init__ makes, and each shape check of the
# functions that take their parameters as plain numbers: (callable,
# arguments, error, message)
INVALID = [
    (cutset_bound, (4, 0, 2, 3, 1), BoundError, "need 1 <= k <= d <= n-1"),
    (cutset_bound, (4, 3, 2, 3, 1), BoundError, "need 1 <= k <= d <= n-1"),
    (cutset_bound, (4, 2, 4, 3, 1), BoundError, "need 1 <= k <= d <= n-1"),
    (cutset_bound, (4, 2, 3, 1, 2), BoundError, "need beta <= alpha"),
    (CodeParams, (7, -1), ValueError, "parameters must be nonnegative"),
    (CodeParams, (7, 4, None, None, None, -2), ValueError,
     "parameters must be nonnegative"),
    (CodeParams, (7, 4, None, None, 5), ValueError,
     "d_min exceeds the classical limit n - k + 1"),
    (mr_rdelta2, (2, 2, 0, 4), ValueError,
     "parameters must be positive with k >= 1"),
    (pmr_parity_split, (0, 2, 1, GF13), ValueError,
     "parameters must be positive with k >= 1"),
    (LocalStructure, (((0, 1), (1, 2)),), ValueError,
     "groups must be disjoint"),
    (LocalStructure, (((0, 1), ()),), ValueError,
     "group 1 has no private coordinate"),
    (mr_r12, (2, 0), ValueError, "parameters must be positive with k >= 1"),
    (mr_r12, (1, 1), ValueError, "parameters must be positive with k >= 1"),
    (pmr_parity_split, (3, 3, -1, GF13), ValueError,
     "need 0 <= delta <= r-1, got delta=-1"),
    (pmr_general_a1, (1, 2, 2, 13), ValueError,
     "parameters must be positive with k >= 1"),
    (VerifyReport, ("x", True, "sampled"), ValueError,
     "sampled reports must record their seed"),
    (VerifyReport, ("x", True, "sampled", None, {"seed": 0, "samples": 0}),
     ValueError, "a sampled PASS must replay at least one pattern"),
    (cutset_bound, (4, 2, 3, 1, -1), BoundError, "need beta >= 0"),
]


@pytest.mark.parametrize("make,args,error,message", INVALID)
def test_record_validation(make, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make(*args)


def test_failing_report_gets_a_witness():
    assert VerifyReport("x", False, "exhaustive").witness == \
        "unspecified failure"
    assert VerifyReport("x", False, "exhaustive", [3]).witness == [3]


def test_cli_import_loads_no_code_generator():
    """`import lrckit.cli` in a bare interpreter (-S: no site hooks) loads
    none of the modules that `dataclasses` pulls in, so no start-up
    generates and compiles source."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import lrckit.cli; print(sorted(m for m in ('dataclasses', "
             "'inspect', 'ast', 'dis', 'tokenize') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, src],
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert out.stdout == "[]\n"
