"""Optional internal cross-checks.

When enabled (GGPART_DEBUG=1 or set_debug(True)), predicates that have two
independent characterizations evaluate both and raise on disagreement, and
classification passes raise unless exactly one clause fired instead of taking
the first match.  The test suite switches this on unless GGPART_DEBUG=0.
"""

import os

_enabled = os.environ.get("GGPART_DEBUG", "") not in ("", "0")


def enabled() -> bool:
    return _enabled


def set_debug(flag: bool) -> None:
    global _enabled
    _enabled = bool(flag)
