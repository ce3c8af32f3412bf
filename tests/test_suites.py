"""The check layer of `suites`: the first-witness trial loop and the shared
identity laws."""

import sys
from collections import Counter

from pairform import suites
from pairform.report import PASS


def test_search_stops_each_chart_at_its_first_witness():
    count = 4
    outcomes = {"A": [None] * count, "B": [None, "B2", "B3"], "C": ["C1", "C2"]}
    calls = []

    def trial(chart):
        calls.append(chart)
        return outcomes[chart][sum(c == chart for c in calls) - 1]

    assert suites._search(trial, count, ["A", "B", "C"]) == "C1"
    assert calls == ["A"] * count + ["B"] * 2 + ["C"]


def test_search_keeps_the_last_failing_charts_witness():
    assert suites._search(lambda chart: "bad" if chart == "A" else None, 3, "AB") == "bad"
    assert suites._search(lambda chart: None, 3, "AB") is None


def test_shared_laws_read_their_operator_at_call_time(monkeypatch):
    """Calls are counted by rebinding `suites.pair_*`; a shared law that
    captured its operator when the law table was built would bypass the
    rebinding."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name, sys._getframe(1).f_code.co_name] += 1
            return fn(*args)
        return wrapper

    for name in ("pair_d", "pair_interior", "pair_lie"):
        monkeypatch.setattr(suites, name, counting(name, getattr(suites, name)))
    checks = suites.identity_suite(1, 1, ["t2"])
    assert all(c.verdict == PASS for c in checks)
    # one passing trial per law: d(d a) makes 2 operator calls and the
    # (anti)derivation rule 3
    for law, per_trial in (("_law_squared", 2), ("_law_antiderivation", 3)):
        assert calls["pair_d", law] == calls["pair_interior", law] == per_trial
    # [L_X, op_Y] a = op_[X,Y] a calls op 3 times and L_X twice
    assert calls["pair_interior", "_law_lie_bracket"] == 3
    assert calls["pair_lie", "_law_lie_bracket"] == 3 + 2 + 2
