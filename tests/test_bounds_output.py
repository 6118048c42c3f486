"""`quditmask bounds` output, pinned against the output recorded before
d^floor(m/2) was renamed the construction capacity.

The literals are that output for d in (2, 3, 5) and m in (4, 5, 6, 8), with
and without `--w 2 4 8 17`, with two edits and no others: the always-true
comparison line and key are gone, and the d^floor(m/2) line and key are
renamed "construction capacity" and "construction_capacity". Every other line
and key is as recorded, byte for byte and in its order.
"""

import contextlib
import io
import json

import pytest

from quditmask.cli import EXIT_OK, main

W = ("2", "4", "8", "17")

TEXT = {
    (2, 4): 'd=2 m=4\nconstruction capacity d^floor(m/2) = 4\nsingleton bound d^(m-2) = 4\n',
    (2, 5): 'd=2 m=5\nconstruction capacity d^floor(m/2) = 4\nsingleton bound d^(m-2) = 8\n',
    (2, 6): 'd=2 m=6\nconstruction capacity d^floor(m/2) = 8\nsingleton bound d^(m-2) = 16\n',
    (2, 8): 'd=2 m=8\nconstruction capacity d^floor(m/2) = 16\nsingleton bound d^(m-2) = 64\n',
    (3, 4): 'd=3 m=4\nconstruction capacity d^floor(m/2) = 9\nsingleton bound d^(m-2) = 9\n',
    (3, 5): 'd=3 m=5\nconstruction capacity d^floor(m/2) = 9\nsingleton bound d^(m-2) = 27\n',
    (3, 6): 'd=3 m=6\nconstruction capacity d^floor(m/2) = 27\nsingleton bound d^(m-2) = 81\n',
    (3, 8): 'd=3 m=8\nconstruction capacity d^floor(m/2) = 81\nsingleton bound d^(m-2) = 729\n',
    (5, 4): 'd=5 m=4\nconstruction capacity d^floor(m/2) = 25\nsingleton bound d^(m-2) = 25\n',
    (5, 5): 'd=5 m=5\nconstruction capacity d^floor(m/2) = 25\nsingleton bound d^(m-2) = 125\n',
    (5, 6): 'd=5 m=6\nconstruction capacity d^floor(m/2) = 125\nsingleton bound d^(m-2) = 625\n',
    (5, 8): 'd=5 m=8\nconstruction capacity d^floor(m/2) = 625\nsingleton bound d^(m-2) = 15625\n',
}

W_LINES = {
    2: (
        'w=2: min parties 2  (constructions require m >= 4)\n'
        'w=4: min parties 4\n'
        'w=8: min parties 6\n'
        'w=17: min parties 10\n'
    ),
    3: (
        'w=2: min parties 2  (constructions require m >= 4)\n'
        'w=4: min parties 4\n'
        'w=8: min parties 4\n'
        'w=17: min parties 6\n'
    ),
    5: (
        'w=2: min parties 2  (constructions require m >= 4)\n'
        'w=4: min parties 2  (constructions require m >= 4)\n'
        'w=8: min parties 4\n'
        'w=17: min parties 4\n'
    ),
}

JSON = {
    (2, 4): '{"d": 2, "m": 4, "construction_capacity": 4, "singleton_bound": 4}',
    (2, 5): '{"d": 2, "m": 5, "construction_capacity": 4, "singleton_bound": 8}',
    (2, 6): '{"d": 2, "m": 6, "construction_capacity": 8, "singleton_bound": 16}',
    (2, 8): '{"d": 2, "m": 8, "construction_capacity": 16, "singleton_bound": 64}',
    (3, 4): '{"d": 3, "m": 4, "construction_capacity": 9, "singleton_bound": 9}',
    (3, 5): '{"d": 3, "m": 5, "construction_capacity": 9, "singleton_bound": 27}',
    (3, 6): '{"d": 3, "m": 6, "construction_capacity": 27, "singleton_bound": 81}',
    (3, 8): '{"d": 3, "m": 8, "construction_capacity": 81, "singleton_bound": 729}',
    (5, 4): '{"d": 5, "m": 4, "construction_capacity": 25, "singleton_bound": 25}',
    (5, 5): '{"d": 5, "m": 5, "construction_capacity": 25, "singleton_bound": 125}',
    (5, 6): '{"d": 5, "m": 6, "construction_capacity": 125, "singleton_bound": 625}',
    (5, 8): '{"d": 5, "m": 8, "construction_capacity": 625, "singleton_bound": 15625}',
}

W_TABLE = {
    2: (
        '['
        '{"w": 2, "min_parties": 2, "below_constructed_m": true}, '
        '{"w": 4, "min_parties": 4, "below_constructed_m": false}, '
        '{"w": 8, "min_parties": 6, "below_constructed_m": false}, '
        '{"w": 17, "min_parties": 10, "below_constructed_m": false}'
        ']'
    ),
    3: (
        '['
        '{"w": 2, "min_parties": 2, "below_constructed_m": true}, '
        '{"w": 4, "min_parties": 4, "below_constructed_m": false}, '
        '{"w": 8, "min_parties": 4, "below_constructed_m": false}, '
        '{"w": 17, "min_parties": 6, "below_constructed_m": false}'
        ']'
    ),
    5: (
        '['
        '{"w": 2, "min_parties": 2, "below_constructed_m": true}, '
        '{"w": 4, "min_parties": 2, "below_constructed_m": true}, '
        '{"w": 8, "min_parties": 4, "below_constructed_m": false}, '
        '{"w": 17, "min_parties": 4, "below_constructed_m": false}'
        ']'
    ),
}


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == EXIT_OK
    return buf.getvalue()


@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("d,m", list(TEXT))
def test_text_output(d, m, with_w):
    out = run("bounds", "--d", str(d), "--m", str(m), "--format", "text", *(("--w", *W) if with_w else ()))
    assert out == TEXT[(d, m)] + (W_LINES[d] if with_w else "")


@pytest.mark.parametrize("with_w", [False, True])
@pytest.mark.parametrize("d,m", list(JSON))
def test_json_output(d, m, with_w):
    out = run("bounds", "--d", str(d), "--m", str(m), *(("--w", *W) if with_w else ()))
    doc = dict(json.loads(JSON[(d, m)]), min_parties_table=json.loads(W_TABLE[d]) if with_w else [])
    assert out == json.dumps(doc, indent=2) + "\n"
