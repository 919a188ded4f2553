"""A stub kept only for the benchmark's guard: `bench/run.py` and
`bench/passrun.py` refuse to run when `enabled()` is true, and the library
has no debug mode.  ROADMAP item 9's benchmark change deletes this module
along with that guard."""


def enabled() -> bool:
    return False
