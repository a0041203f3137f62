"""Shared signature-matching machinery: case folding + multi-content rules.

Every engine ultimately answers the same question -- "which signatures'
contents have all appeared?" -- over either a byte stream (TCP) or a
self-contained buffer (UDP datagram, naive per-packet).  This module owns
that logic once:

- :func:`complete` fires a rule when its primary pattern has occurred and
  every extra content has been seen (order-free, Snort-style), once per
  primary occurrence -- the baselines and the Split-Detect slow path all
  decide through it;
- :class:`StreamMatchState` tracks, per flow direction, which extras have
  been seen and how many primary occurrences are awaiting them;
- the baselines' :class:`SignatureMatcher` indexes each signature's
  primary pattern and every extra content in one :class:`DualAutomaton`
  (case-folded for ``nocase`` rules).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from ..match import DualAutomaton, DualStreamMatcher
from ..packet import FlowKey
from ..signatures import Signature


@dataclass(frozen=True)
class SignatureHit:
    """One completed rule match."""

    signature: Signature
    end_offset: int
    """Stream/buffer offset just past the primary pattern occurrence (for
    completions triggered by a late extra content, the extra's offset)."""


@dataclass
class StreamMatchState:
    """Per-flow-direction matching state."""

    matcher: DualStreamMatcher
    extras_seen: dict[int, set[int]] = field(default_factory=dict)
    pending_primaries: dict[int, int] = field(default_factory=dict)


def complete(
    events: Iterable[tuple[int, int | None, int]],
    signatures: Sequence[Signature],
    flow: FlowKey | None,
    extras_seen: dict[int, set[int]],
    pending: dict[int, int],
) -> list[SignatureHit]:
    """Completed rules from content occurrences in stream order: each
    event is ``(signature index, extra index or None for the primary,
    end offset)``; ``extras_seen`` / ``pending`` carry across calls."""
    out: list[SignatureHit] = []
    for sig_index, extra_index, end in events:
        signature = signatures[sig_index]
        if flow is not None and not signature.applies_to_flow(flow):
            continue
        needed = len(signature.extra_contents)
        if extra_index is not None:
            seen = extras_seen.setdefault(sig_index, set())
            if extra_index in seen:
                continue
            seen.add(extra_index)
            if len(seen) == needed and pending.get(sig_index):
                for _ in range(pending.pop(sig_index)):
                    out.append(SignatureHit(signature, end))
            continue
        # Primary occurrence.
        if needed == 0 or len(extras_seen.get(sig_index, ())) == needed:
            out.append(SignatureHit(signature, end))
        else:
            pending[sig_index] = pending.get(sig_index, 0) + 1
    return out


class SignatureMatcher:
    """Every content of every signature in one automaton (the baselines')."""

    def __init__(self, signatures: list[Signature]) -> None:
        self.signatures = list(signatures)
        patterns: list[tuple[bytes, bool]] = []
        # entry -> (signature index, None for primary | extra index)
        self._entry_info: list[tuple[int, int | None]] = []
        for sig_index, signature in enumerate(self.signatures):
            patterns.append((signature.pattern, signature.nocase))
            self._entry_info.append((sig_index, None))
            for extra_index, extra in enumerate(signature.extra_contents):
                patterns.append((extra, signature.nocase))
                self._entry_info.append((sig_index, extra_index))
        self.automaton = DualAutomaton(patterns) if patterns else None

    @property
    def empty(self) -> bool:
        return self.automaton is None

    def new_stream_state(self) -> StreamMatchState:
        """Fresh per-direction state."""
        assert self.automaton is not None
        return StreamMatchState(matcher=DualStreamMatcher(self.automaton))

    def _complete(
        self,
        hits: list[tuple[int, int]],
        flow: FlowKey | None,
        extras_seen: dict[int, set[int]],
        pending: dict[int, int],
    ) -> list[SignatureHit]:
        info = self._entry_info
        events = [(*info[entry_id], end) for entry_id, end in hits]
        return complete(events, self.signatures, flow, extras_seen, pending)

    def match_chunk(
        self, state: StreamMatchState, chunk: bytes, flow: FlowKey | None
    ) -> list[SignatureHit]:
        """Feed the next stream chunk; returns newly completed rules."""
        hits = [(m.pattern_id, m.end_offset) for m in state.matcher.feed(chunk)]
        return self._complete(hits, flow, state.extras_seen, state.pending_primaries)

    def match_buffer(
        self, payload: bytes, flow: FlowKey | None
    ) -> list[SignatureHit]:
        """Match a self-contained buffer (datagram / single packet)."""
        if self.automaton is None:
            return []
        hits = sorted(self.automaton.find_all(payload), key=lambda h: h[1])
        return self._complete(hits, flow, {}, {})

    def match_buffer_many(
        self,
        payloads: list[bytes],
        flows: list[FlowKey | None],
    ) -> list[list[SignatureHit]]:
        """Batched :meth:`match_buffer`: one automaton sweep over all
        payloads, then per-buffer completion; one result list each."""
        if self.automaton is None:
            return [[] for _ in payloads]
        results: list[list[SignatureHit]] = []
        for raw_hits, flow in zip(self.automaton.scan_many(payloads), flows):
            hits = sorted(raw_hits, key=lambda h: h[1])
            results.append(self._complete(hits, flow, {}, {}))
        return results
