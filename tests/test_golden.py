"""Byte-level pins of every CLI report, of the DOT export and of three
failure-path reports, and of three density pipelines whose extensions
move horoballs across rays.

The sha256 values live in `tests/digests.json`.  Each of its `cli`
entries without limits is run here, in process; the entries with limits
run in CI at benchmark scale.  A change to the report classes that keeps
these values keeps every report byte-identical.  The failure paths
overflow the failure caps: 21 transport failures against a suite cap of
20, and 49 codistance failures against a cap of 10.
"""

import hashlib
import json

import pytest

from conftest import (DIGESTS, ROOT, library_digest, rotating_star,
                      swap_map, twisted_datum)
from nagaotree import cli
from nagaotree import extension as E
from nagaotree import serialize as S
from nagaotree import suites as SU
from nagaotree import twincodist as TC

TIER1 = {key: case for key, case in DIGESTS["cli"].items()
         if "limits" not in case}

# the density pipeline report and the extension of `conftest.rotating_star`
# (4 samples, seed 0, instances recorded), by datum and radius
CROSS_RAY_SHA256 = {
    ("twisted", 4): library_digest("cross-ray-twisted-r4"),
    ("D1", 4): library_digest("cross-ray-D1-r4"),
    ("D2", 3): library_digest("cross-ray-D2-r3"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suites_failure_report() -> str:
    reports = SU.run_suites(twisted_datum(corrupt=True), 4, samples=60, seed=13)
    return S.dumps_canonical([r.to_json() for r in reports])


def codist_failure_report(t) -> str:
    table = TC.synthesize_codistance(t)
    for n, v in enumerate(t.verts):
        if n % 7 == 0:
            table.values[v] += 2
    return S.dumps_canonical(TC.verify_codist(table, t).to_json())


def check_li_failure_report(t) -> str:
    swap = E.greedy_extend(t, swap_map(t.datum))
    return S.dumps_canonical([
        E.check_Li(t, swap, i, record_instances=True).to_json()
        for i in (1, 2)])


@pytest.mark.parametrize("key", list(TIER1))
def test_cli_report_bytes(key, request, monkeypatch, capsys):
    argv = TIER1[key]["argv"]
    # the session datum keeps the balls other tests have already built
    d = request.getfixturevalue(argv[argv.index("--datum") + 1].lower())
    monkeypatch.setattr(cli, "load_datum", lambda source: d)
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out) == TIER1[key]["sha256"]


def test_suite_failure_report_bytes():
    text = suites_failure_report()
    transport = json.loads(text)[3]
    assert transport["suite"] == "transport"
    assert transport["checked"] == 1508 and len(transport["failures"]) == 20
    assert sha256(text) == library_digest("failure-suites")


def test_codist_failure_report_bytes(ball_d0_6):
    text = codist_failure_report(ball_d0_6)
    assert len(json.loads(text)["failures"]) == 10
    assert sha256(text) == library_digest("failure-codist")


def test_check_li_failure_report_bytes(ball_d0_6):
    text = check_li_failure_report(ball_d0_6)
    assert [c["valid"] for c in json.loads(text)] == [False, False]
    assert sha256(text) == library_digest("failure-check_Li")


@pytest.mark.parametrize("name,radius", list(CROSS_RAY_SHA256))
def test_cross_ray_extension_bytes(name, radius, request):
    d = (twisted_datum() if name == "twisted"
         else request.getfixturevalue(name.lower()))
    ext, report = E.density_pipeline(d, rotating_star(d), radius,
                                     n_samples=4, seed=0,
                                     record_instances=True)
    assert report.passed
    text = S.dumps_canonical({"report": report.to_json(),
                              "extension": ext.to_json()})
    assert sha256(text) == CROSS_RAY_SHA256[name, radius]
