"""Optional internal cross-checks.

When enabled (GGPART_DEBUG=1 or set_debug(True)), one cross-check runs:
`is_in_C` also asks `is_bressoud_B` and raises on disagreement.  The other
checks run on every call, debug or not: the starting-type pass raises
unless exactly one of its cases matches, the classification clause passes
(`_lt_clauses`, `_eq_clauses`, `_refine_sim`) raise when more than one
clause fires, and the lt and eq passes also when none does, and
`find_m_eq33` raises unless exactly one p makes the member an eq member.
The test suite switches debug on unless GGPART_DEBUG=0.
"""

import os

_enabled = os.environ.get("GGPART_DEBUG", "") not in ("", "0")


def enabled() -> bool:
    return _enabled


def set_debug(flag: bool) -> None:
    global _enabled
    _enabled = bool(flag)
