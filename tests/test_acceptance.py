"""Reference-result acceptance suite.

Runs every criterion of lioup.validate at its stated tolerance and reports
one pass/fail line per sub-criterion.  Two sub-criteria are implemented
literally but are beyond double precision (see their `details`); they are
expected failures and the suite stays green while they keep failing.
"""

import pytest

from lioup import model, superop, validate

EXPECTED_IDS = (
    "1a", "1b",
    "2a", "2b", "2c", "2d", "2e",
    "3a", "3b",
    "4",
    "5a", "5b", "5c", "5d",
    "6a", "6b", "6c",
    "7a", "7b", "7c",
    "8a", "8b",
    "9",
    "10a", "10b",
    "11",
    "12",
    "13a",
)


@pytest.fixture(scope="module")
def results():
    out = {r.cid: r for r in validate.run_all()}
    report, _ = validate.format_report(out.values())
    print("\n" + report)
    return out


def test_all_criteria_present(results):
    assert tuple(results) == EXPECTED_IDS


@pytest.mark.parametrize("cid", EXPECTED_IDS)
def test_criterion(results, cid):
    r = results[cid]
    line = f"[{r.cid}] {'PASS' if r.passed else 'FAIL'} {r.description}"
    if r.details:
        line += f" ({r.details})"
    print(line)
    if r.expected_fail:
        if r.passed:
            pytest.fail(f"{cid} unexpectedly passed; remove its expected-fail "
                        f"marking: {r.details}")
        pytest.xfail(f"documented double-precision limit: {r.details}")
    assert r.passed, line


def test_criteria_judge_the_shipped_generator(monkeypatch):
    # every criterion takes its model matrices from superop.generator, the
    # path that spectrum, sweep, find-ep and evolve solve: once the
    # generators are built, no criterion calls a model builder
    for name in ("eff3", "full4"):
        superop.generator(name)

    def broken(*args, **kwargs):
        raise AssertionError("a criterion called a model builder")

    for name in ("build_eff3", "build_full4_rwa", "reduce_effective"):
        monkeypatch.setattr(model, name, broken)
    results = validate.run_all()
    assert sum(r.passed for r in results) == 26
    assert [(r.cid, r.expected_fail) for r in results if not r.passed] == [
        ("2d", True), ("7a", True)]
