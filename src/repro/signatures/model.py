"""Signature and split-signature data model.

A :class:`Signature` is the paper's object of study in its simplest form:
an exact byte string, optionally constrained to a destination port.  A
:class:`SplitSignature` is the paper's central construct -- the same
signature cut into ``k >= 3`` contiguous pieces, each at least ``p`` bytes
long, together with the small-packet threshold ``B = 2p`` under which the
detection theorem holds (see ``repro.theory``).
"""

from __future__ import annotations

from dataclasses import dataclass, field


_PROTOCOL_NUMBERS = {"tcp": 6, "udp": 17}


@dataclass(frozen=True)
class Signature:
    """One exact-string signature, à la a Snort ``content:`` rule."""

    sid: int
    pattern: bytes
    msg: str = ""
    dst_port: int | None = None
    """Restrict matching to flows towards this destination port (None = any)."""

    protocol: str = "tcp"
    """Transport the rule applies to: "tcp" or "udp"."""

    nocase: bool = False
    """Match the content case-insensitively (Snort ``nocase``)."""

    extra_contents: tuple[bytes, ...] = ()
    """Additional content strings that must *all* also appear in the same
    stream (TCP) or datagram (UDP) for the rule to fire.  ``pattern`` is
    the longest content and the one the splitter operates on."""

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError(f"signature {self.sid} has an empty pattern")
        if any(not c for c in self.extra_contents):
            raise ValueError(f"signature {self.sid} has an empty extra content")
        if any(len(c) > len(self.pattern) for c in self.extra_contents):
            raise ValueError(
                f"signature {self.sid}: pattern must be the longest content"
            )
        if self.dst_port is not None and not 0 <= self.dst_port <= 0xFFFF:
            raise ValueError(f"signature {self.sid} has invalid port {self.dst_port}")
        if self.protocol not in _PROTOCOL_NUMBERS:
            raise ValueError(f"signature {self.sid} has unknown protocol {self.protocol!r}")

    def fold(self, data: bytes) -> bytes:
        """Case-fold ``data`` when this signature is ``nocase``."""
        return data.lower() if self.nocase else data

    @property
    def match_pattern(self) -> bytes:
        """The primary pattern as the matching engines should index it."""
        return self.fold(self.pattern)

    @property
    def match_extras(self) -> tuple[bytes, ...]:
        """Extra contents as the matching engines should index them."""
        return tuple(self.fold(c) for c in self.extra_contents)

    def __len__(self) -> int:
        return len(self.pattern)

    @property
    def protocol_number(self) -> int:
        """The IP protocol number this rule applies to (6 or 17)."""
        return _PROTOCOL_NUMBERS[self.protocol]

    def applies_to_port(self, port: int) -> bool:
        """True when this signature should be evaluated for ``port``."""
        return self.dst_port is None or self.dst_port == port

    def applies_to_flow(self, flow) -> bool:
        """Port and protocol check against a :class:`~repro.packet.FlowKey`."""
        return flow.protocol == self.protocol_number and self.applies_to_port(
            flow.dst_port
        )


@dataclass(frozen=True)
class Piece:
    """One contiguous slice of a split signature."""

    signature: Signature
    index: int
    offset: int
    """Byte offset of this piece within the signature pattern."""

    data: bytes

    def __post_init__(self) -> None:
        expected = self.signature.pattern[self.offset : self.offset + len(self.data)]
        if expected != self.data:
            raise ValueError(
                f"piece {self.index} of sid {self.signature.sid} does not "
                f"match its claimed offset {self.offset}"
            )


@dataclass(frozen=True)
class SplitSignature:
    """A signature split for fast-path detection.

    Invariants (enforced at construction; they are the precondition of
    THEORY.md's theorem, ``repro.theory``): the pieces are contiguous
    and non-overlapping, each has at least ``piece_length`` (``p``)
    bytes, they cover the pattern from ``start_offset`` to its end, and
    there are exactly ``k = (L - start_offset) // p >= 3`` of them.  No
    upper bound on a piece's length is needed (the proof uses none).
    ``small_packet_threshold`` is ``2 * piece_length``: the fast path
    diverts flows carrying smaller non-final data packets, which is
    exactly what makes the pigeonhole argument go through.

    ``start_offset`` may be positive (rarity-aware splitting skips a
    benign-looking pattern prefix); the theorem's counting argument only
    uses the covered span, so soundness is unaffected.
    """

    signature: Signature
    pieces: tuple[Piece, ...]
    piece_length: int

    def __post_init__(self) -> None:
        sid = self.signature.sid
        if len(self.pieces) < 3:
            raise ValueError(
                f"sid {sid}: split produced {len(self.pieces)} "
                "pieces; the detection theorem requires at least 3"
            )
        cursor = self.pieces[0].offset
        for piece in self.pieces:
            if piece.offset != cursor:
                raise ValueError(f"sid {sid}: pieces are not contiguous (gap at offset {cursor})")
            if len(piece.data) < self.piece_length:
                raise ValueError(
                    f"sid {sid}: piece {piece.index} is "
                    f"{len(piece.data)} bytes, below p={self.piece_length}"
                )
            cursor += len(piece.data)
        length = len(self.signature.pattern)
        if cursor != length:
            raise ValueError(f"sid {sid}: pieces end at {cursor}, not at the pattern end {length}")
        covered = length - self.pieces[0].offset
        if len(self.pieces) != covered // self.piece_length:
            raise ValueError(
                f"sid {sid}: {len(self.pieces)} pieces over {covered} covered bytes; "
                f"the theorem needs k = {covered} // p={self.piece_length} = "
                f"{covered // self.piece_length}"
            )

    @property
    def small_packet_threshold(self) -> int:
        """Minimum non-final packet payload the fast path accepts (B = 2p)."""
        return 2 * self.piece_length

    @property
    def k(self) -> int:
        """Number of pieces."""
        return len(self.pieces)

    @property
    def start_offset(self) -> int:
        """Pattern offset where piece coverage begins (0 unless the
        splitter skipped a common prefix)."""
        return self.pieces[0].offset


@dataclass
class RuleSet:
    """A collection of signatures plus their splits, keyed by sid."""

    signatures: list[Signature] = field(default_factory=list)

    def __iter__(self):
        return iter(self.signatures)

    def __len__(self) -> int:
        return len(self.signatures)

    def by_sid(self, sid: int) -> Signature:
        for signature in self.signatures:
            if signature.sid == sid:
                return signature
        raise KeyError(f"no signature with sid {sid}")

    def add(self, signature: Signature) -> None:
        self.signatures.append(signature)

    def length_histogram(self) -> dict[int, int]:
        """Pattern-length distribution (Table 1 raw material)."""
        hist: dict[int, int] = {}
        for signature in self.signatures:
            hist[len(signature)] = hist.get(len(signature), 0) + 1
        return dict(sorted(hist.items()))
