import os

import pytest

from ggpart import debug


@pytest.fixture(scope="session", autouse=True)
def _debug_checks():
    # debug cross-checks are on unless the run asks for GGPART_DEBUG=0
    debug.set_debug(os.environ.get("GGPART_DEBUG") != "0")
    yield
    debug.set_debug(False)
