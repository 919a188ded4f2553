"""Named worked examples shared by the CLI (--fixture) and the golden tests.

Each fixture records the expected marking rows (mark -> decreasing values)
and, where relevant, the overlined value and the family parameters the
example is classified under.  `fixture_marked` rebuilds the partition
from the rows; tests then assert that re-marking reproduces the rows
exactly.
"""

from __future__ import annotations

from .marking import MarkedPartition, gg_mark_special

FIXTURES: dict[str, dict] = {
    "pi1": {
        "rows": {
            1: (38, 34, 30, 26, 22, 16, 12, 9, 6, 1),
            2: (36, 32, 26, 22, 18, 14, 10, 6, 2),
            3: (38, 22, 16, 12, 6),
        },
        "note": "running example: member of the (4,3) family, N=(10,9,5)",
    },
    "pi2": {
        "rows": {
            1: (38, 34, 30, 26, 22, 18, 14, 11, 9, 6, 1),
            2: (38, 34, 28, 22, 18, 14, 10, 6, 2),
            3: (38, 24, 16, 12, 6),
        },
        "note": "eq-family example at (p,t)=(6,5), subset 6",
    },
    "pi3": {
        "rows": {
            1: (42, 38, 32, 28, 24, 20, 16, 12, 8, 4),
            2: (42, 38, 32, 28, 24, 18, 14, 10, 6),
            3: (40, 34, 26, 20, 12, 6),
        },
        "note": "reduction-type example: lt subset 2 at (9,0), tilde subset 4",
    },
    "mu": {
        "rows": {
            1: (38, 34, 30, 26, 22, 16, 12, 9, 6, 1),
            2: (38, 34, 28, 22, 18, 14, 10, 6, 2),
            3: (38, 24, 16, 12, 6),
        },
        "note": "dilation image of pi1 at (6,5)",
    },
    "pi1_step4": {
        "rows": {
            1: (38, 34, 30, 26, 22, 16, 12, 9, 6, 1),
            2: (36, 32, 26, 22, 18, 14, 10, 6, 2),
            3: (38, 23, 16, 12, 6),
        },
        "note": "dilation trace of pi1 at (6,5), after the basic step",
    },
    "pi1_step3": {
        "rows": {
            1: (38, 34, 30, 26, 22, 16, 12, 9, 6, 1),
            2: (36, 32, 27, 22, 18, 14, 10, 6, 2),
            3: (38, 24, 16, 12, 6),
        },
        "note": "dilation trace of pi1, second intermediate",
    },
    "pi1_step2": {
        "rows": {
            1: (38, 34, 30, 26, 22, 16, 12, 9, 6, 1),
            2: (36, 33, 28, 22, 18, 14, 10, 6, 2),
            3: (38, 24, 16, 12, 6),
        },
        "overline": 33,
        "note": "dilation trace of pi1, third intermediate (33 overlined)",
    },
    "pi1_step1": {
        "rows": {
            1: (38, 34, 30, 26, 22, 16, 12, 9, 6, 1),
            2: (37, 34, 28, 22, 18, 14, 10, 6, 2),
            3: (38, 24, 16, 12, 6),
        },
        "overline": 37,
        "note": "dilation trace of pi1, last intermediate (37 overlined)",
    },
    "m6": {
        "rows": {1: (8, 4, 1), 2: (10, 6, 2), 3: (8, 4)},
        "params": {"k": 4, "r": 3, "p": 2, "t": 1, "j": 6},
        "note": "tilde subset 6 input of the insertion examples",
    },
    "omega6": {
        "rows": {1: (10, 6, 3, 1), 2: (10, 6, 2), 3: (8, 4)},
        "params": {"k": 4, "r": 3, "p": 2, "t": 1, "j": 6},
        "note": "insertion image of m6",
    },
    "m7": {
        "rows": {1: (16, 12, 8, 4, 1), 2: (14, 10, 6), 3: (14, 6)},
        "params": {"k": 4, "r": 3, "p": 3, "t": 1, "j": 7},
        "note": "tilde subset 7 input",
    },
    "nu7": {
        "rows": {1: (14, 10, 6, 3, 1), 2: (16, 12, 8, 4), 3: (14, 6)},
        "params": {"k": 4, "r": 3, "p": 3, "t": 1, "j": 7},
        "note": "midpoint of the subset-7 insertion",
    },
    "omega7": {
        "rows": {1: (16, 12, 6, 3, 1), 2: (16, 12, 8, 4), 3: (14, 8)},
        "params": {"k": 4, "r": 3, "p": 3, "t": 1, "j": 7},
        "note": "insertion image of m7",
    },
    "m8": {
        "rows": {1: (16, 12, 8, 4, 1), 2: (14, 10, 6, 2), 3: (16, 10, 6)},
        "params": {"k": 4, "r": 3, "p": 3, "t": 2, "j": 8},
        "note": "tilde subset 8 input",
    },
    "omega8": {
        "rows": {1: (16, 12, 8, 4, 1), 2: (16, 12, 8, 5, 2), 3: (16, 10, 6)},
        "params": {"k": 4, "r": 3, "p": 3, "t": 2, "j": 8},
        "note": "insertion image of m8",
    },
    "m9": {
        "rows": {1: (10, 6, 2), 2: (10, 6, 2), 3: (12, 4)},
        "params": {"k": 4, "r": 3, "p": 3, "t": 0, "j": 9},
        "note": "tilde subset 9 input",
    },
    "omega9": {
        "rows": {1: (12, 8, 4, 1), 2: (10, 6, 2), 3: (12, 4)},
        "params": {"k": 4, "r": 3, "p": 3, "t": 0, "j": 9},
        "note": "insertion image of m9",
    },
    "m10": {
        "rows": {1: (14, 10, 6, 2), 2: (10, 6, 2), 3: (12, 4)},
        "params": {"k": 4, "r": 3, "p": 3, "t": 0, "j": 10},
        "note": "tilde subset 10 input",
    },
    "omega10": {
        "rows": {1: (12, 8, 4, 1), 2: (14, 10, 6, 2), 3: (12, 4)},
        "params": {"k": 4, "r": 3, "p": 3, "t": 0, "j": 10},
        "note": "insertion image of m10",
    },
    "m11": {
        "rows": {1: (18, 14, 10, 6, 2), 2: (20, 16, 10, 6, 2), 3: (16, 12, 4)},
        "params": {"k": 4, "r": 3, "p": 5, "t": 0, "j": 11},
        "note": "tilde subset 11 input",
    },
    "omega11": {
        "rows": {1: (20, 16, 12, 8, 4, 1), 2: (20, 16, 10, 6, 2), 3: (16, 12, 4)},
        "params": {"k": 4, "r": 3, "p": 5, "t": 0, "j": 11},
        "note": "insertion image of m11",
    },
    "m12": {
        "rows": {1: (26, 22, 18, 14, 10, 6, 2), 2: (24, 20, 16, 10, 6, 2), 3: (24, 16, 12, 4)},
        "params": {"k": 4, "r": 3, "p": 6, "t": 0, "j": 12},
        "note": "tilde subset 12 input",
    },
    "nu12": {
        "rows": {1: (24, 20, 16, 12, 8, 4, 1), 2: (26, 22, 18, 14, 10, 6, 2), 3: (24, 16, 12, 4)},
        "params": {"k": 4, "r": 3, "p": 6, "t": 0, "j": 12},
        "note": "midpoint of the subset-12 insertion",
    },
    "omega12": {
        "rows": {1: (26, 22, 16, 12, 8, 4, 1), 2: (26, 22, 18, 14, 10, 6, 2), 3: (24, 18, 12, 4)},
        "params": {"k": 4, "r": 3, "p": 6, "t": 0, "j": 12},
        "note": "insertion image of m12",
    },
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def fixture_parts(name: str) -> tuple[int, ...]:
    fx = FIXTURES[name]
    parts: list[int] = []
    for row in fx["rows"].values():
        parts.extend(row)
    return tuple(sorted(parts, reverse=True))


def fixture_overline(name: str):
    return FIXTURES[name].get("overline")


def fixture_marked(name: str) -> MarkedPartition:
    """Re-mark the fixture's parts (the stored rows are the expected result)."""
    return gg_mark_special(fixture_parts(name), fixture_overline(name))


def fixture_rows(name: str) -> dict[int, tuple[int, ...]]:
    return dict(FIXTURES[name]["rows"])
