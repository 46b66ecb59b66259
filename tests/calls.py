"""Exact counts of the Python calls a block makes, read from ``sys.setprofile``.

    with Calls() as calls:
        enumerate_chains(sr(0), Degree(9, 9))
    calls[moment_graph._walk].resumes  # 10,159: one per chain after the first

Work pins observe through this recorder and never patch what they count.  Records are
keyed by code object, since lambdas share the name ``<lambda>``.  C calls are not
recorded: ``sys.setprofile`` reports them differently from one Python version to the
next.  On exit, after an exception too, the profile function set before the block is
set again, so an inner block is seen by its own recorder only.
"""

import dis
import sys
from functools import cache
from inspect import CO_GENERATOR, CO_VARARGS, CO_VARKEYWORDS


class Record:
    """What one function did in a ``Calls`` block.  A frame that ends in an exception
    returns ``None``.  Closing a generator enters it if unstarted (up to Python 3.11)
    and resumes it if suspended (up to 3.12), so pins close none in their block."""

    __slots__ = ("entries", "resumes", "args", "values")

    def __init__(self):
        self.entries = 0  # first entries
        self.resumes = 0  # generator resumes
        self.args = []  # each first entry's arguments, a tuple in parameter order
        self.values = []  # every value returned or yielded, in order


@cache
def _parameters(code) -> tuple[str, ...]:
    flags = code.co_flags
    count = code.co_argcount + code.co_kwonlyargcount
    return code.co_varnames[: count + bool(flags & CO_VARARGS) + bool(flags & CO_VARKEYWORDS)]


@cache
def _first_yield(code) -> int:
    # A generator's first entry starts before its first yield; a resume starts after one.
    return min(i.offset for i in dis.get_instructions(code) if i.opname == "YIELD_VALUE")


class Calls:
    """Context manager recording every Python function entered in its block."""

    def __init__(self):
        self.records = {}  # code object -> Record, in order of first event

    def __getitem__(self, function) -> Record:
        """The record of ``function``: an empty one if it was not entered."""
        return self.records.get(function.__code__) or Record()

    def __enter__(self) -> "Calls":
        self._previous = sys.getprofile()
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(self._previous)

    def _profile(self, frame, event, arg) -> None:
        code = frame.f_code
        if code.co_filename == __file__:
            return  # this recorder's own __enter__ and __exit__
        if event == "call":
            record = self.records.setdefault(code, Record())
            if code.co_flags & CO_GENERATOR and frame.f_lasti >= _first_yield(code):
                record.resumes += 1
            else:
                record.entries += 1
                local = frame.f_locals
                record.args.append(tuple(local[name] for name in _parameters(code)))
        elif event == "return" and code in self.records:  # else entered before the block
            self.records[code].values.append(arg)
