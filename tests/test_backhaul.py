"""Backhaul accounting: Table-style loads and bus behavior."""

import pytest

from cobeam.backhaul import (MessageBus, centralized_signaling_load,
                             periter_signaling_load, verify_exchange_count)
from cobeam.errors import ConfigurationError


class TestClosedForms:
    @pytest.mark.parametrize("B,U,A,expected", [
        (2, 8, 8, 256),
        (3, 12, 12, 1728),
        (4, 16, 16, 6144),
        (1, 10, 4, 0),
    ])
    def test_centralized(self, B, U, A, expected):
        assert centralized_signaling_load(B, U, A) == expected

    @pytest.mark.parametrize("B,U,expected", [
        (2, 8, 16),
        (3, 12, 48),
        (4, 16, 96),
        (1, 6, 0),
    ])
    def test_per_iteration(self, B, U, expected):
        assert periter_signaling_load(B, U) == expected

    def test_indivisible_user_count(self):
        with pytest.raises(ConfigurationError):
            periter_signaling_load(3, 8)


def pd_round_plan(B, users_per_cell):
    """Exchange plan of one subgradient round, fully connected."""
    plan = []
    for b in range(B):
        for other in range(B):
            if other == b:
                continue
            # dual of each served user's SINR constraint to the interferer
            plan.append((b, other, "dual-lambda",
                         [0.1] * users_per_cell))
            # cap duals toward the users' serving BS
            plan.append((b, other, "dual-mu", [0.2] * users_per_cell))
    return plan


def one_round(agents, plan, bus=None):
    """Post every (sender, receiver, tag, values) of ``plan`` on the bus
    (a new one over ``agents`` if none), deliver, and return (inboxes,
    bus)."""
    bus = MessageBus(agents) if bus is None else bus
    for message in plan:
        bus.post(*message)
    return bus.deliver(), bus


class TestBusRounds:
    def test_alg2_round_count_matches_table(self):
        inboxes, bus = one_round([0, 1], pd_round_plan(2, 4))
        assert bus.log.scalars_in_round(0) == 16
        assert verify_exchange_count(bus.log, 0,
                                     periter_signaling_load(2, 8))

    def test_empty_plan(self):
        inboxes, bus = one_round([0, 1], [])
        assert bus.log.scalars_in_round(0) == 0
        assert inboxes == {0: [], 1: []}

    def test_tampered_log_detected(self):
        _, bus = one_round([0, 1], pd_round_plan(2, 4))
        assert not verify_exchange_count(bus.log, 0, 15)

    def test_unknown_bs_rejected(self):
        bus = MessageBus([0, 1])
        with pytest.raises(ConfigurationError):
            bus.post(5, 0, "dual-mu", [1.0])
        with pytest.raises(ConfigurationError):
            bus.post(0, 7, "dual-mu", [1.0])

    def test_gr_power_broadcast_counting(self):
        # candidate-selection round: each BS broadcasts one power per
        # candidate; counted once per value, not per receiver
        candidates, B = 100, 3
        plan = [(b, None, "gr-power", [1.0] * candidates) for b in range(B)]
        _, bus = one_round(list(range(B)), plan)
        assert bus.log.scalars_in_round(0, tags=("gr-power",)) \
            == candidates * B

    def test_broadcast_reaches_all_others(self):
        inboxes, _ = one_round([0, 1, 2], [(0, None, "rank-bit", [1.0])])
        assert len(inboxes[1]) == 1 and len(inboxes[2]) == 1
        assert inboxes[0] == []

    def test_order_independent_log(self):
        plan = pd_round_plan(2, 4)
        _, bus1 = one_round([0, 1], plan)
        _, bus2 = one_round([0, 1], list(reversed(plan)))
        assert bus1.log.records == bus2.log.records

    def test_rounds_accumulate(self):
        bus = MessageBus([0, 1])
        for r in range(3):
            one_round([0, 1], pd_round_plan(2, 2), bus=bus)
        assert sorted({r.round for r in bus.log.records}) == [0, 1, 2]
        for r in range(3):
            assert bus.log.scalars_in_round(r) == 8

    def test_csv_export(self, tmp_path):
        _, bus = one_round([0, 1], pd_round_plan(2, 2))
        path = tmp_path / "log.csv"
        bus.log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "round,sender,receiver,tag,count"
        assert len(lines) == 1 + len(bus.log.records)
