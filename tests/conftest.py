"""Hand-built streams shared by the tests."""
import copy

from oagd import Stream


class ListStream(Stream):
    """A stream over a list of rounds, on every Stream default: the
    follower is inner_gd, the window average the generic loop, and the
    measurement goes round by round."""

    def __init__(self, rounds, d1=1, d2=1):
        self.rounds = list(rounds)
        self.d1 = d1
        self.d2 = d2

    def __len__(self):
        return len(self.rounds)

    def __getitem__(self, i):
        return self.rounds[i]


def with_defaults(stream, *names):
    """A shallow copy of stream whose named methods are Stream's own
    defaults and whose other methods stay its overrides, so an override can
    be compared with the default on the same rounds."""
    view = copy.copy(stream)
    for name in names:
        setattr(view, name, getattr(Stream, name).__get__(view))
    return view
