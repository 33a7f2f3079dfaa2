"""The fault plane: where a :class:`~repro.sim.network.SimNetwork` holds or drops messages.

The base network implements the paper's benign model: reliable FIFO
channels.  Everything that holds, drops or alters a message lives
here -- partitions, one-way blocks, scripted drops (a sequencer that
crashes mid-multicast), probabilistic loss, duplication,
reorder/jitter, payload corruption and heal storms -- behind a single
hook in ``SimNetwork.transmit`` and one in ``SimNetwork._deliver``.  A
network without a plane installed pays one attribute check per send
and per delivery and behaves byte-identically to the benign model.

Composition model
-----------------

* **Rewrite hooks** (:meth:`FaultPlane.add_rewrite`) see every send
  first, in installation order.  A hook returns ``None`` (pass), a
  replacement payload (the equivocation scenarios swap rids inside
  one ``SeqOrder``), or :data:`DROP` -- a scripted loss, counted as
  ``dropped``.  :class:`repro.faults.CrashDuringMulticast` is such a
  hook.  Rewrites run *before* the wire checksum is stamped, because a
  Byzantine sender computes a valid checksum for whatever it sends,
  unlike line noise.
* **Blocks** hold a message instead of losing it, checked at the send
  gate and again at the delivery gate (a message in flight when its
  link goes down is held too).  :meth:`FaultPlane.partition` blocks
  every link between groups in both directions; :meth:`FaultPlane.block`
  blocks one ``src -> dst`` direction (the *asymmetric* partition
  crash-stop chaos can never produce).  All held messages share one
  list and one release routine, which releases them in send order:
  :meth:`FaultPlane.heal_partition` keeps the channels' FIFO floor
  (a partition delays messages, as in the paper's model), while
  :meth:`FaultPlane.heal` releases the one-way backlog in one *storm*
  that bypasses the floor so the burst genuinely arrives interleaved.
  A message whose link is still cut by the other kind of block stays
  held.
* **Policies** (:class:`LinkFaultPolicy`) are matched per message by
  ``(src, dst, payload-kind)`` patterns, first match wins; ``"*"``
  matches anything.  The payload kind set of a message includes its
  class name, and -- reaching through :class:`~repro.broadcast.reliable.RMsg`
  wrappers -- the inner class name plus the operation kind of a
  :class:`~repro.core.messages.Request` (e.g. ``"mig_install"``), so a
  policy can target exactly one protocol step.
* **Corruption** wraps the payload *after* the checksum is stamped, so
  the receiving network detects the mismatch and drops the message
  (traced ``msg_corrupt_drop``) instead of delivering garbage to the
  protocol.

Every injected fault is counted *and* traced (``msg_drop``, ``msg_dup``,
``msg_corrupt``, ``msg_jitter``, ``msg_held``, ``msg_rewrite``, and
``heal``/``heal_storm`` with the number released);
:func:`repro.analysis.checkers.check_fault_plane_accounting`
cross-checks the two so a fault can never silently vanish.

All randomness draws from ``sim.child_rng("faultplane")``: runs stay
deterministic per seed, and installing a plane never perturbs the RNG
streams of the processes or the latency model.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network hooks us)
    from repro.sim.network import Envelope, SimNetwork

#: Rewrite signature: ``(src, dst, payload) -> replacement | None | DROP``.
#: Returning ``None`` leaves the payload untouched.
RewriteHook = Callable[[str, str, Any], Optional[Any]]

#: The rewrite-hook verdict that drops the message (scripted loss).
DROP = object()


def wire_checksum(payload: Any) -> int:
    """The lightweight wire checksum: CRC-32 of the payload's repr.

    Every wire message in the repo has a faithful ``repr`` (the trace
    digests already depend on that), so repr equality is payload
    equality for checksum purposes -- no serialization layer needed in
    a simulator.
    """
    return zlib.crc32(repr(payload).encode())


class CorruptedPayload:
    """A payload mangled in flight (bit-rot stand-in).

    Wrapping (rather than mutating) keeps the original intact for
    accounting: the checker can re-verify that every corrupt message
    was either dropped at delivery or is still held somewhere.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any) -> None:
        self.original = original

    def __repr__(self) -> str:
        return f"CorruptedPayload({self.original!r})"


@dataclass(frozen=True)
class LinkFaultPolicy:
    """Per-message fault probabilities for one matched link/kind.

    ``drop``/``duplicate``/``corrupt``/``jitter`` are independent
    probabilities in [0, 1].  Duplication creates one extra copy; each
    copy then independently rolls drop/corrupt/jitter (a duplicated
    message can lose one copy and corrupt the other).  ``jitter`` adds
    ``uniform(0, jitter_span)`` to the one-way delay *and bypasses the
    FIFO floor*, so jittered messages genuinely reorder against their
    channel -- the burst-reorder fault FIFO channels otherwise forbid.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    jitter: float = 0.0
    jitter_span: float = 5.0

    def __post_init__(self) -> None:
        for field in ("drop", "duplicate", "corrupt", "jitter"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be a probability, got {value}")
        if self.jitter_span < 0.0:
            raise ValueError(f"jitter_span must be >= 0, got {self.jitter_span}")


def payload_kinds(payload: Any) -> Set[str]:
    """The kind names a policy pattern can match for one payload.

    Includes the payload class name; for R-multicast envelopes also the
    wrapped payload's class name, and for requests the operation kind
    (``op[0]``), so policies can target e.g. every ``"mig_install"``
    regardless of which relay leg carries it.
    """
    kinds = {type(payload).__name__}
    inner = getattr(payload, "payload", None)
    if inner is not None and type(payload).__name__ == "RMsg":
        kinds.add(type(inner).__name__)
        payload = inner
    op = getattr(payload, "op", None)
    if isinstance(op, tuple) and op and isinstance(op[0], str):
        kinds.add(op[0])
    return kinds


class FaultPlane:
    """The per-link fault injector installed on a :class:`SimNetwork`.

    Construct via ``network.ensure_fault_plane()`` (idempotent) rather
    than directly; once a plane is installed the network routes every
    send through :meth:`process` and every delivery through
    :meth:`hold_if_blocked`.
    """

    def __init__(self, network: "SimNetwork") -> None:
        self.network = network
        self.rng = network.sim.child_rng("faultplane")
        #: First-match-wins policy rules: (src, dst, kind, policy).
        self._rules: List[Tuple[str, str, str, LinkFaultPolicy]] = []
        self._rewrites: List[RewriteHook] = []
        #: One-way blocked links; "*" wildcards either side.
        self._blocked: Set[Tuple[str, str]] = set()
        #: Links cut by the current partition (both directions).
        self._partitioned: Set[Tuple[str, str]] = set()
        #: Every held message, whichever block holds it.
        self._held: List["Envelope"] = []
        self._checksums = False
        # Fault accounting (cross-checked against the trace by
        # check_fault_plane_accounting).
        self.dropped = 0
        self.duplicated = 0
        self.corrupted = 0
        self.jittered = 0
        self.held = 0
        self.released = 0
        self.rewritten = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def add_policy(
        self,
        policy: LinkFaultPolicy,
        src: str = "*",
        dst: str = "*",
        kind: str = "*",
    ) -> None:
        """Match ``(src, dst, kind)`` messages (first added rule wins)."""
        self._rules.append((src, dst, kind, policy))
        if policy.corrupt > 0.0:
            # Checksums are stamped on *every* message once any policy
            # can corrupt: a corrupt message must be detectable no
            # matter which rule it matched.
            self._checksums = True

    def add_rewrite(self, hook: RewriteHook) -> None:
        """Install a payload rewrite or scripted drop (runs before checksums)."""
        self._rewrites.append(hook)

    def block(self, src: str, dst: str) -> None:
        """One-way partition: hold every ``src -> dst`` message."""
        self._blocked.add((src, dst))
        self._record("oneway_block", src=src, dst=dst)

    def block_links(self, pairs: Iterable[Tuple[str, str]]) -> None:
        for src, dst in pairs:
            self.block(src, dst)

    def unblock(self, src: str, dst: str) -> None:
        self._blocked.discard((src, dst))

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Cut every link between ``groups``, replacing any partition.

        Processes not named in any group form one implicit extra group.
        Cross-group messages are held and released by
        :meth:`heal_partition` (delayed, not lost -- channels stay
        reliable).
        """
        groups = [list(group) for group in groups]
        group_of = {}
        for index, group in enumerate(groups):
            for pid in group:
                if pid in group_of:
                    raise ValueError(f"{pid} appears in two partition groups")
                group_of[pid] = index
        pids = self.network.pids
        self._partitioned = {
            (src, dst)
            for src in pids
            for dst in pids
            if group_of.get(src, -1) != group_of.get(dst, -1)
        }
        self._record("partition", groups=[sorted(group) for group in groups])

    def heal_partition(self) -> None:
        """Remove the partition and release held traffic in FIFO order."""
        self._partitioned = set()
        self._release(fifo=True, kind="heal")

    def heal(self) -> None:
        """Drop all one-way blocks and release held traffic in one storm.

        Every held message is scheduled *now*, in send order but with
        the FIFO floor bypassed: the receiver sees the whole backlog
        land in one latency window, interleaved with live traffic --
        the reconnection burst that shakes out fragile dedup paths.
        """
        self._blocked.clear()
        self._release(fifo=False, kind="heal_storm")

    def _release(self, fifo: bool, kind: str) -> None:
        """Schedule every held message whose link is up, in send order."""
        held, self._held = self._held, []
        held.sort(key=lambda envelope: envelope.seq)
        schedule = self.network._schedule_delivery
        released = 0
        for envelope in held:
            if self._blocked_link(envelope.src, envelope.dst):
                self._held.append(envelope)
            else:
                schedule(envelope, 0.0, fifo)
                released += 1
        self.released += released
        self._record(kind, released=released)

    def _record(self, kind: str, **fields: Any) -> None:
        trace = self.network.trace
        if trace.enabled:
            trace.record(self.network.sim.now, "*faultplane*", kind, **fields)

    @property
    def pending_held(self) -> int:
        """Messages currently held by a block or the partition."""
        return len(self._held)

    def held_envelopes(self) -> List["Envelope"]:
        """The currently held envelopes (accounting checker introspection)."""
        return list(self._held)

    def stats(self) -> dict:
        return {
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "corrupted": self.corrupted,
            "jittered": self.jittered,
            "held": self.held,
            "released": self.released,
            "rewritten": self.rewritten,
            "pending_held": len(self._held),
        }

    # ------------------------------------------------------------------
    # The per-message path (called by SimNetwork)
    # ------------------------------------------------------------------

    def _blocked_link(self, src: str, dst: str) -> bool:
        partitioned = self._partitioned
        if partitioned and (src, dst) in partitioned:
            return True
        blocked = self._blocked
        if not blocked:
            return False
        return (
            (src, dst) in blocked
            or (src, "*") in blocked
            or ("*", dst) in blocked
        )

    def hold_if_blocked(self, envelope: "Envelope") -> bool:
        """Hold ``envelope`` if its link is blocked (send and delivery gate)."""
        if not self._blocked_link(envelope.src, envelope.dst):
            return False
        self._held.append(envelope)
        self.held += 1
        trace = self.network.trace
        if trace.enabled:
            trace.record(
                self.network.sim.now, envelope.src, "msg_held",
                dst=envelope.dst, payload=envelope.payload,
            )
        return True

    def _match(self, src: str, dst: str, payload: Any) -> Optional[LinkFaultPolicy]:
        kinds: Optional[Set[str]] = None
        for rule_src, rule_dst, rule_kind, policy in self._rules:
            if rule_src != "*" and rule_src != src:
                continue
            if rule_dst != "*" and rule_dst != dst:
                continue
            if rule_kind != "*":
                if kinds is None:
                    kinds = payload_kinds(payload)
                if rule_kind not in kinds:
                    continue
            return policy
        return None

    def process(self, envelope: "Envelope") -> None:
        """Apply rewrites, checksums, blocks, and the matched policy."""
        network = self.network
        trace = network.trace
        traced = trace.enabled
        now = network.sim.now
        src, dst = envelope.src, envelope.dst
        for hook in self._rewrites:
            replacement = hook(src, dst, envelope.payload)
            if replacement is None:
                continue
            if replacement is DROP:
                self.dropped += 1
                if traced:
                    trace.record(now, src, "msg_drop", dst=dst, payload=envelope.payload)
                return
            envelope.payload = replacement
            self.rewritten += 1
            if traced:
                trace.record(now, src, "msg_rewrite", dst=dst, payload=replacement)
        # The checksum covers what the sender *sent* (post-rewrite: a
        # Byzantine sender signs its own lie); line-noise corruption
        # below deliberately does not re-stamp.
        if self._checksums:
            envelope.checksum = wire_checksum(envelope.payload)
        if self.hold_if_blocked(envelope):
            return
        policy = self._match(src, dst, envelope.payload)
        schedule = network._schedule_delivery
        if policy is None:
            schedule(envelope)
            return
        rng = self.rng
        copies = [envelope]
        if policy.duplicate > 0.0 and rng.random() < policy.duplicate:
            from repro.sim.network import Envelope as _Envelope

            clone = _Envelope(
                next(network._seq), src, dst, envelope.payload,
                envelope.send_time,
            )
            clone.checksum = envelope.checksum
            copies.append(clone)
            self.duplicated += 1
            if traced:
                trace.record(now, src, "msg_dup", dst=dst, payload=envelope.payload)
        for copy in copies:
            if policy.drop > 0.0 and rng.random() < policy.drop:
                self.dropped += 1
                if traced:
                    trace.record(now, src, "msg_drop", dst=dst, payload=copy.payload)
                continue
            if policy.corrupt > 0.0 and rng.random() < policy.corrupt:
                copy.payload = CorruptedPayload(copy.payload)
                self.corrupted += 1
                if traced:
                    trace.record(
                        now, src, "msg_corrupt", dst=dst, payload=copy.payload
                    )
            extra = 0.0
            fifo = True
            if policy.jitter > 0.0 and rng.random() < policy.jitter:
                extra = rng.uniform(0.0, policy.jitter_span)
                fifo = False
                self.jittered += 1
                if traced:
                    trace.record(
                        now, src, "msg_jitter",
                        dst=dst, extra=extra, payload=copy.payload,
                    )
            schedule(copy, extra, fifo)


def install_uniform_faults(
    network: "SimNetwork",
    drop: float = 0.0,
    duplicate: float = 0.0,
    corrupt: float = 0.0,
    jitter: float = 0.0,
    jitter_span: float = 5.0,
    kind: str = "*",
) -> FaultPlane:
    """Install one policy on every link (the chaos/benchmark helper)."""
    plane = network.ensure_fault_plane()
    plane.add_policy(
        LinkFaultPolicy(
            drop=drop,
            duplicate=duplicate,
            corrupt=corrupt,
            jitter=jitter,
            jitter_span=jitter_span,
        ),
        kind=kind,
    )
    return plane
