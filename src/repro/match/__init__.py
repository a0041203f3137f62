"""String-matching engines: Aho-Corasick, Boyer-Moore-Horspool, naive."""

from .aho_corasick import DENSE_STATE_LIMIT, ROOT_STATE, AhoCorasick
from .dual import DualAutomaton, DualStreamMatcher, build_stream_sweep
from .single import BoyerMooreHorspool, naive_find_all
from .streaming import StreamMatch, StreamMatcher

__all__ = [
    "DENSE_STATE_LIMIT",
    "ROOT_STATE",
    "AhoCorasick",
    "BoyerMooreHorspool",
    "DualAutomaton",
    "DualStreamMatcher",
    "StreamMatch",
    "StreamMatcher",
    "build_stream_sweep",
    "naive_find_all",
]
