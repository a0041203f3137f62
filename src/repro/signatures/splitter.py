"""Signature splitting -- the prerequisite of Split-Detect.

Splitting turns an exact-string signature of length ``L`` into
``k = floor(L / p)`` contiguous pieces covering it to its end, each at
least ``p`` bytes (``SplitSignature`` checks exactly these invariants;
the theorem needs no upper bound on a piece).  Together with the fast path's rule "divert any flow whose
non-final data packet carries fewer than ``B = 2p`` payload bytes", the
pigeonhole argument of ``repro.theory`` guarantees that an undiverted,
in-order, non-overlapping flow delivering the signature must place at
least one piece wholly inside one packet, where a per-packet matcher sees
it.  ``k >= 3`` is required: with two pieces a pair of boundaries can cut
both (see the theorem's tightness test).

The even split gives pieces of ``p`` to ``2p - 1`` bytes.  When a
:class:`ByteFrequencyModel` is supplied, internal split points are nudged
(pieces stay between ``p`` and ``3p`` bytes) so that the most common
piece is as rare as possible, reducing benign fast-path hits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Piece, RuleSet, Signature, SplitSignature
from .ngram import ByteFrequencyModel

#: Pieces shorter than this are too likely to occur in benign traffic to
#: be useful no matter what the model says.
ABSOLUTE_MIN_PIECE = 4


class UnsplittableSignatureError(ValueError):
    """Raised when a signature is too short for a sound split."""

    def __init__(self, signature: Signature, minimum: int) -> None:
        super().__init__(
            f"sid {signature.sid}: pattern of {len(signature)} bytes cannot "
            f"be split into 3 pieces of >= {minimum} bytes"
        )
        self.signature = signature


@dataclass(frozen=True)
class SplitPolicy:
    """Knobs governing how signatures are split.

    ``piece_length`` is the paper's ``p``: the nominal piece size and
    half the small-packet threshold.  Signatures shorter than
    ``3 * piece_length`` fall back to ``p' = L // 3`` provided that stays
    at or above ``min_piece_length``.
    """

    piece_length: int = 8
    min_piece_length: int = ABSOLUTE_MIN_PIECE
    optimize_boundaries: bool = True

    skip_common_prefix: bool = False
    """With a background model, allow piece coverage to begin past a
    benign-looking pattern prefix ("GET /", "MAIL FROM", ...).  The
    theorem's counting argument runs over the covered span, so skipping
    is sound as long as at least three pieces of ``piece_length`` remain;
    the splitter never skips more than leaves three, and
    ``SplitSignature`` rejects a split whose ``k`` is not
    ``(L - start) // p``."""

    prefix_skip_limit: int = 16
    """Most prefix bytes the splitter may skip."""

    def __post_init__(self) -> None:
        if self.piece_length < self.min_piece_length:
            raise ValueError("piece_length below min_piece_length")
        if self.min_piece_length < ABSOLUTE_MIN_PIECE:
            raise ValueError(f"min_piece_length below {ABSOLUTE_MIN_PIECE}")


def effective_piece_length(signature: Signature, policy: SplitPolicy) -> int:
    """The ``p`` actually used for this signature under ``policy``."""
    length = len(signature)
    if length >= 3 * policy.piece_length:
        return policy.piece_length
    fallback = length // 3
    if fallback >= policy.min_piece_length:
        return fallback
    raise UnsplittableSignatureError(signature, policy.min_piece_length)


def split_signature(
    signature: Signature,
    policy: SplitPolicy | None = None,
    model: ByteFrequencyModel | None = None,
) -> SplitSignature:
    """Split one signature into pieces satisfying the detection theorem."""
    policy = policy or SplitPolicy()
    p = effective_piece_length(signature, policy)
    pattern = signature.pattern
    length = len(pattern)
    start = 0
    if model is not None and policy.skip_common_prefix:
        start = _choose_start(pattern, p, policy, model)
    boundaries = _even_boundaries(length, p, start)
    if model is not None and policy.optimize_boundaries and len(boundaries) >= 3:
        boundaries = _optimize(pattern, boundaries, p, model)
    pieces = tuple(
        Piece(
            signature=signature,
            index=i,
            offset=boundaries[i],
            data=pattern[boundaries[i] : boundaries[i + 1]],
        )
        for i in range(len(boundaries) - 1)
    )
    return SplitSignature(signature=signature, pieces=pieces, piece_length=p)


def _even_boundaries(length: int, p: int, start: int) -> list[int]:
    """k = floor((length-start)/p) piece boundaries covering [start, length)."""
    covered = length - start
    k = covered // p
    base = covered // k
    remainder = covered % k
    boundaries = [start]
    for i in range(k):
        boundaries.append(boundaries[-1] + base + (1 if i < remainder else 0))
    return boundaries


def _choose_start(
    pattern: bytes, p: int, policy: SplitPolicy, model: ByteFrequencyModel
) -> int:
    """Pick the coverage start offset minimizing the most common piece."""
    max_skip = min(policy.prefix_skip_limit, len(pattern) - 3 * p)
    if max_skip <= 0:
        return 0
    best_start = 0
    best_score = None
    for start in range(max_skip + 1):
        bounds = _even_boundaries(len(pattern), p, start)
        score = max(
            model.log_probability(pattern[bounds[i] : bounds[i + 1]])
            for i in range(len(bounds) - 1)
        )
        if best_score is None or score < best_score - 1e-12:
            best_start, best_score = start, score
    return best_start


def _optimize(
    pattern: bytes, boundaries: list[int], p: int, model: ByteFrequencyModel
) -> list[int]:
    """Coordinate-descent on internal boundaries to minimize the most
    common (highest log-probability) piece."""

    def score(bounds: list[int]) -> float:
        return max(
            model.log_probability(pattern[bounds[i] : bounds[i + 1]])
            for i in range(len(bounds) - 1)
        )

    best = list(boundaries)
    best_score = score(best)
    improved = True
    while improved:
        improved = False
        for i in range(1, len(best) - 1):
            lo = best[i - 1] + p
            hi = best[i + 1] - p
            for candidate in range(lo, hi + 1):
                if candidate == best[i]:
                    continue
                trial = best[:i] + [candidate] + best[i + 1 :]
                # Only >= p is required for soundness (with k and the
                # endpoints fixed); the 3p cap keeps pieces scan-friendly.
                if any(
                    trial[j + 1] - trial[j] > 3 * p for j in (i - 1, i)
                ):
                    continue
                trial_score = score(trial)
                if trial_score < best_score - 1e-12:
                    best, best_score = trial, trial_score
                    improved = True
    return best


@dataclass
class SplitRuleSet:
    """Every signature of a rule set, split and indexed for the fast path."""

    policy: SplitPolicy
    splits: dict[int, SplitSignature]
    unsplittable: list[Signature]
    udp_whole: list[Signature] = None  # type: ignore[assignment]
    """UDP signatures, matched whole per datagram: UDP has no stream, so
    splitting buys nothing -- the only evasion channel is fragmentation,
    which diverts the datagram to the slow path for defragmentation."""

    def __post_init__(self) -> None:
        if self.udp_whole is None:
            self.udp_whole = []

    @property
    def small_packet_threshold(self) -> int:
        """The global ``B``: twice the largest per-signature piece length."""
        if not self.splits:
            return 2 * self.policy.piece_length
        return 2 * max(split.piece_length for split in self.splits.values())

    def all_pieces(self) -> list[Piece]:
        """Every piece of every split, in deterministic order."""
        out: list[Piece] = []
        for sid in sorted(self.splits):
            out.extend(self.splits[sid].pieces)
        return out

    @property
    def piece_count(self) -> int:
        return sum(split.k for split in self.splits.values())


def split_ruleset(
    rules: RuleSet,
    policy: SplitPolicy | None = None,
    model: ByteFrequencyModel | None = None,
) -> SplitRuleSet:
    """Split every signature in ``rules``; too-short ones are set aside.

    Unsplittable signatures are returned separately so the caller can
    decide their fate (the Split-Detect engine can scan them whole on the
    fast path as a best-effort, or pin their ports to the slow path).
    """
    policy = policy or SplitPolicy()
    splits: dict[int, SplitSignature] = {}
    unsplittable: list[Signature] = []
    udp_whole: list[Signature] = []
    for signature in rules:
        if signature.protocol == "udp":
            udp_whole.append(signature)
            continue
        try:
            splits[signature.sid] = split_signature(signature, policy, model)
        except UnsplittableSignatureError:
            unsplittable.append(signature)
    return SplitRuleSet(
        policy=policy, splits=splits, unsplittable=unsplittable, udp_whole=udp_whole
    )
