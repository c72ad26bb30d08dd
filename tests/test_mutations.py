"""Single-field mutations of every shipped input, generated from the
field tables in ``config_io``.

For each shipped scenario and each file it names, every field of every
record is set to values of the wrong type and, where the field has a
bound, to one just outside it; every required field is deleted; every
object gets an unknown key; and every name that refers to another
file's names (a dim, an axis, an operand, a file) is set to one that
resolves to nothing.  Each mutated input runs in-process through
``cli.main(["analyze", ...])``.  It must return 1 or 2 without raising
and print no traceback, and its message must name the mutated field:
its path, or for a name that resolves to nothing, that name.
"""

import io
import json
from contextlib import redirect_stderr

import pytest

from roofline_lab import config_io as c
from roofline_lab.cli import main

NOTHING = "zz_resolves_to_nothing"
UNKNOWN = "zz_unknown_key"
DELETE = object()

# JSON values of the wrong type for each kind; null is added for every
# field that is not nullable
WRONG = {
    c._string: [7, 2.5, True, ["x"], {}],
    c._strings: ["C", 7, [7], [None], [["C"]], {}],
    c._number: ["1", "nan", float("nan"), float("inf"), True, False, [1.0], {}],
    c._integer: ["1", 2.5, 2.0, True, False, [1], {}],
    c._boolean: [0, 1, "false", "true", [], {}],
    c._pair: [3, "x", ["x"], [1, 2], ["x", "2"], ["x", 1, 2], {"x": 1}],
    c._pairs: [3, "x", {}, [3], [["x"]], [[1, 1]]],
    c._loop_dims: [3, "x", {}, [3], [["x"]], [[1, 1]]],
    c._temporal: [3, "x", {}, [3], [[3]], [["x", 1]]],
    c._records: [3, "x", {}, [3], [[]]],
    c._read: [3, "x", True, [], [{}]],
    c._map: [[1], "x", 3, True, [["W", 1]]],
    c._path: [5, 2.5, True, ["x"], {}],
    c._ai_profile: [[1.0], "x", 3, {"x": 1.0}, {"1": "16"}, {"1": True}, {"1": [16]}],
    c._transforms: [3, "x", {}, [3], [[]], [{}], ["sparsity"]],
}


def _outside(bound):
    """Values just and far below a (">" or ">=", minimum) bound."""
    op, minimum = bound
    return [minimum - 1, minimum - 1000] + ([minimum] if op == ">" else [])


def record_cases(obj, table, where, keys):
    """(keys into the document, new value, texts the message must hold)
    for one JSON object read through ``table``."""
    yield keys + (UNKNOWN,), 1, (f"{where}: unknown keys: ['{UNKNOWN}']",)
    for key, _, kind, default, bound in table.fields:
        at, k = f"{where}.{key}", keys + (key,)
        if key in obj and default is c.REQUIRED:
            yield k, DELETE, (f"{where}: missing required field '{key}'",)
        for bad in WRONG[kind] + ([None] if default is not None else []):
            yield k, bad, (at,)
        yield from value_cases(obj.get(key), kind, bound, at, k)


def _pair_cases(at, k):
    """Wrong names and counts in the ``[name, count]`` pair at ``at``."""
    for bad in WRONG[c._string]:
        yield k + (0,), bad, (at,)
    for bad in WRONG[c._integer] + [0, -1]:
        yield k + (1,), bad, (f"{at}[1]",)


def value_cases(val, kind, bound, at, k):
    """Out-of-range values, names that resolve to nothing, and the
    cases of the records and pairs inside ``val``."""
    if kind in (c._integer, c._number) and bound is not None:
        for bad in _outside(bound):
            yield k, bad, (at,)
    elif kind is c._string and type(bound) is tuple:
        yield k, "bogus", (at,)
    elif kind is c._string and bound is not None:  # names a dim, axis or operand
        yield k, NOTHING, (NOTHING,)
    elif kind is c._strings:
        for i in range(len(val or ())):
            yield k + (i,), NOTHING, (NOTHING,)
    elif kind is c._path:
        yield k, f"{NOTHING}.json", (NOTHING,)
    elif kind is c._pair:
        yield k, [NOTHING, val[1] if val else 1], (NOTHING,)
        yield from _pair_cases(at, k) if val else ()
    elif kind in (c._pairs, c._loop_dims):
        yield k, [], (at,)
        for i in range(len(val or ())):
            yield from _pair_cases(f"{at}[{i}]", k + (i,))
    elif kind is c._temporal:
        for li, loops in enumerate(val or ()):
            for j in range(len(loops)):
                yield k + (li, j, 0), NOTHING, (NOTHING,)
                yield from _pair_cases(f"{at}[{li}][{j}]", k + (li, j))
    elif kind is c._read:
        yield from record_cases(val, bound, at, k)
    elif kind is c._records:
        if bound.many == c.NON_EMPTY:
            yield k, [], (at,)
        for i, item in enumerate(val or ()):
            yield from record_cases(item, bound, f"{at}[{i}]", k + (i,))
    elif kind is c._map:
        value_kind, value_bound = bound
        for name in val or {}:
            renamed = {NOTHING if n == name else n: v for n, v in val.items()}
            yield k, renamed, (NOTHING,)
            for bad in WRONG[value_kind] + [None]:
                yield k + (name,), bad, (f"{at}.{name}",)
            for bad in _outside(value_bound) if value_bound else ():
                yield k + (name,), bad, (f"{at}.{name}",)
    elif kind is c._ai_profile:
        for level in val or {}:
            for bad in (0, -1.0, None):
                yield k + (level,), bad, (f"{at}.{level}",)
    elif kind is c._transforms:
        for i, transform in enumerate(val or ()):
            ti, tk = f"{at}[{i}]", k + (i,)
            yield tk + ("kind",), DELETE, (f"{ti}: missing required field 'kind'",)
            yield tk + ("kind",), "bogus", (f"{ti}.kind",)
            yield from record_cases(transform, c.TRANSFORMS[transform["kind"]], ti, tk)


def mutated(text, keys, value):
    doc = json.loads(text)
    target = doc
    for key in keys[:-1]:
        target = target[key]
    if value is DELETE:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return doc


TABLES = {"scenario": c.SCENARIO, "arch": c.ARCH, "workload": c.WORKLOAD,
          "mapping": c.MAPPING}
SCENARIOS = ("fig3_ai16", "gemm_dense", "gemm_2to4", "imc256")
FILES = [(name, role) for name in SCENARIOS for role in TABLES
         if role == "scenario"
         or json.loads(c.fixture_path(f"{name}.scenario").read_text())[role]]


@pytest.mark.parametrize("name, role", FILES, ids=[f"{n}-{r}" for n, r in FILES])
def test_every_mutation_fails_naming_the_field(tmp_path, name, role):
    scenario = json.loads(c.fixture_path(f"{name}.scenario").read_text())
    for key in ("arch", "workload", "mapping"):
        if scenario[key]:  # absolute, so a copy anywhere reads the shipped files
            scenario[key] = str(c.fixture_path(scenario[key]))
    scenario_path = tmp_path / "case.scenario"
    if role == "scenario":
        doc, target = scenario, scenario_path
    else:
        doc = json.loads(c.fixture_path(scenario[role]).read_text())
        target = tmp_path / f"case.{role}"
        scenario_path.write_text(json.dumps({**scenario, role: str(target)}))
    text = json.dumps(doc)
    cases = list(record_cases(doc, TABLES[role], role, ()))
    failures = []
    for keys, value, names in cases:
        target.write_text(json.dumps(mutated(text, keys, value)))
        err = io.StringIO()
        with redirect_stderr(err):
            try:
                code = main(["analyze", "--scenario", str(scenario_path)],
                            stdout=io.StringIO())
            except Exception as exc:  # noqa: BLE001 - reported below
                code = repr(exc)
        message = err.getvalue()
        if (code not in (1, 2) or "Traceback" in message
                or not all(n in message for n in names)):
            shown = "<delete>" if value is DELETE else json.dumps(value)
            failures.append(f"{keys} = {shown}: {code} {message.strip()}")
    assert not failures, (f"{len(failures)} of {len(cases)} mutations:\n"
                          + "\n".join(failures[:20]))
