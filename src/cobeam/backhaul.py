"""Deterministic bulk-synchronous backhaul exchange.

Per-BS agents post scalar messages into a bus; a barrier per round
delivers everything at once and appends to a log.  The closed-form
signaling loads give the reference counts the logs are checked against.
"""

import csv
from dataclasses import dataclass

from .errors import ConfigurationError

TAGS = ("dual-lambda", "dual-mu", "local-copy", "rank-bit", "gr-power",
        "gr-gain")


@dataclass(frozen=True)
class MessageRecord:
    round: int
    sender: int
    receiver: object      # BS id, or None for a broadcast value
    tag: str
    count: int


class MessageLog:
    """Append-only record of exchanged scalars."""

    def __init__(self):
        self.records = []

    def append(self, record):
        if record.count < 0:
            raise ValueError("scalar counts are nonnegative")
        if self.records and record.round < self.records[-1].round:
            raise ValueError("rounds must be nondecreasing")
        self.records.append(record)

    def scalars_in_round(self, round_index, tags=None):
        return sum(r.count for r in self.records
                   if r.round == round_index
                   and (tags is None or r.tag in tags))

    def total_scalars(self):
        return sum(r.count for r in self.records)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["round", "sender", "receiver", "tag", "count"])
            for r in self.records:
                recv = "" if r.receiver is None else r.receiver
                writer.writerow([r.round, r.sender, recv, r.tag, r.count])


class MessageBus:
    """Synchronous scalar exchange between BS agents.

    ``post`` queues messages during a round; ``deliver`` is the barrier:
    it sorts the queue canonically (so agent execution order cannot leak
    into the log), appends to the log, advances the round counter, and
    returns every agent's inbox.
    """

    def __init__(self, agents):
        self.agents = sorted(agents)
        self._known = set(self.agents)
        self.round = 0
        self.log = MessageLog()
        self._queue = []

    def post(self, sender, receiver, tag, values):
        if sender not in self._known:
            raise ConfigurationError(f"unknown sending BS {sender}")
        if receiver is not None and receiver not in self._known:
            raise ConfigurationError(f"unknown receiving BS {receiver}")
        if tag not in TAGS:
            raise ConfigurationError(f"unknown message tag {tag!r}")
        values = tuple(float(v) for v in values)
        self._queue.append((sender, receiver, tag, values))

    def deliver(self):
        """Barrier: flush the queue, log it, and hand out inboxes."""
        inboxes = {b: [] for b in self.agents}
        self._queue.sort(key=lambda m: (m[0], -1 if m[1] is None else m[1],
                                        m[2]))
        for sender, receiver, tag, values in self._queue:
            self.log.append(MessageRecord(self.round, sender, receiver,
                                          tag, len(values)))
            targets = self.agents if receiver is None else [receiver]
            for t in targets:
                if t != sender:
                    inboxes[t].append((sender, tag, values))
        self._queue = []
        self.round += 1
        return inboxes


def centralized_signaling_load(B, U, A):
    """Scalar channel coefficients moved to give every BS global CSI.

    2 A U (B-1) B: each of B BSs shares A complex coefficients for each
    of U users with B-1 peers, two reals per complex coefficient.
    """
    return 2 * A * U * (B - 1) * B


def periter_signaling_load(B, U):
    """Scalars exchanged per distributed iteration: 2 B (B-1) (U/B)."""
    if U % B != 0:
        raise ConfigurationError(
            f"per-iteration load formula needs U divisible by B "
            f"(got U={U}, B={B})")
    return 2 * B * (B - 1) * (U // B)


def gr_gain_signaling_load(C, U, G):
    """Scalars of the randomization fallback round: C U G.

    Each BS broadcasts, for each of its C draws, the gain of each of its
    groups' directions at each of the U users, G gains per user in all.
    """
    return C * U * G


def verify_exchange_count(log, round_index, expected, tags=None):
    """Compare logged scalars in one round against a closed-form count."""
    return log.scalars_in_round(round_index, tags) == expected
