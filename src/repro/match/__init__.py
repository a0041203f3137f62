"""String matching: the Aho-Corasick automaton, its case-aware pair and
stream matchers, and the q-gram sweep in front of them."""

from .aho_corasick import ROOT_STATE, AhoCorasick
from .dual import DualAutomaton, DualStreamMatcher
from .streaming import StreamMatch, StreamMatcher

__all__ = [
    "ROOT_STATE",
    "AhoCorasick",
    "DualAutomaton",
    "DualStreamMatcher",
    "StreamMatch",
    "StreamMatcher",
]
