"""Byte-level pins of every CLI report, of the DOT export and of three
failure-path reports, and of three density pipelines whose extensions
move horoballs across rays.

A change to the report classes that keeps these sha256 values keeps every
report byte-identical.  The failure paths overflow the failure caps: 21
transport failures against a suite cap of 20, and 49 codistance failures
against a cap of 10.  D2 `extend` is pinned by
`test_cli.test_extend_identity_d2_r3`.
"""

import hashlib
import json

import pytest

from conftest import rotating_star, twisted_datum
from nagaotree import cli
from nagaotree import extension as E
from nagaotree import serialize as S
from nagaotree import suites as SU
from nagaotree import tree as T
from nagaotree import twincodist as TC
from nagaotree import words as W

RADIUS = {"D0": 4, "D1": 4, "D2": 3, "D3": 4}

CLI_SHA256 = {
    ("validate", "D0"):
        "e2fe4b5676cfe8ad51396586dcdb25dfa22c8c72aaeee3759a1f38a82df0b2c7",
    ("validate", "D1"):
        "865d99067c32e86e5199b3e42c64fa6b5ed4a684ed40a6396b86d46709be5156",
    ("validate", "D2"):
        "3a44d40fd42be761bf80a3590b43c867085c4e31b4e7c7372011b6fa86448ae9",
    ("validate", "D3"):
        "66db69aa76116cc270d1580e81848b2a809a8d2ad231b264580d8ccae42d39fa",
    ("tree", "D0"):
        "850036f1b59607b07dc5bc20e12339a2a43bcb0a78d9dd97dd7a9e0cb7780dd9",
    ("tree", "D1"):
        "68acbfa84546a2e53e1151f21f205e9c04ca8d3a3bef66c78a4f47ed05216472",
    ("tree", "D2"):
        "115e76662f20c94659edb67f29f75d9eacd1b431d38f63925ecdfa22951f4ee2",
    ("tree", "D3"):
        "a42694d7187fcb29c812b8072f9d5d628c145a520c2c15e0e4a48238f9acdb6b",
    ("codist", "D0"):
        "a813a9c1671733333c91f6c8f228c755ad84e612855892eb56552b7b4034b9d4",
    ("codist", "D1"):
        "e1e35bf75a3b9b8c8121793772d634d9e04eec62b0bb5520d3b26c6462c9dc00",
    ("codist", "D2"):
        "c0d5f13ab5c9e89d544d0be2c31f7d3f291492e5a893b0b71d688af76f02cd06",
    ("codist", "D3"):
        "66159289b031b95b964932d4ebc4714cf443d039adcbf88667726fa3a100fa17",
    ("suite", "D0"):
        "d323dcf9bea9f31b5e4fd87f3af418431f853aa7b6429f3aafc04511887c41bc",
    ("suite", "D1"):
        "0b05e0463493e269c0fd53f8a10f22cf2805c6ec9c6fcbb3e5c87a4a9db2c578",
    ("suite", "D2"):
        "8f80a8ba3fb3ab43bb68a440f386bb56a61fa0fc4b65b7d23dbf3ff9709c2377",
    ("suite", "D3"):
        "7915552a5c0585d39e646b1215664c7cf99600e119b8dc467435e84ead40734f",
    ("extend", "D0"):
        "5d28bb6596d8a602a8430db036365ebe1320ca9179a21a3ae67c93d42b87c4ec",
    ("extend", "D1"):
        "8b9a21f022ade725873fda0a688326fa3958665d1fb893eb59c767aa6bbdfec5",
    ("extend", "D3"):
        "e2c1882d240ddb5d230c4a602a541795085fbe171ae2015b35fa744155dc3e33",
}

# `tree --format dot` at radius 4
DOT_SHA256 = {
    "D0": "969fddf2e2d026d0a4fc0d43528af16f90ca748b0c67bec8838e0e2976725059",
    "D1": "969fddf2e2d026d0a4fc0d43528af16f90ca748b0c67bec8838e0e2976725059",
    "D2": "317630e7b3da389d8ea870f6c33f30ed29f69d36dad1ae9a66ee651b78a66c61",
    "D3": "8eb47bbb849e7f9295781bee854b73fc851df5a529244f2a38cd1771cb0036f4",
}

FAILURE_SHA256 = {
    "suites":
        "8752ba9cdfdc86b37f62d2f78a5a9d7ab3acb61fdae4ec5bd73bafc75b53fc14",
    "codist":
        "c2611a4ed6b41fe4fcd3e99f702bb42045fbf865f65d91c2e9b527dd5d5b5df7",
    "check_Li":
        "625e82644d4c7b7e3713d45473b2a6e87d09136394701cccb4cd85cf7930c340",
}

# the density pipeline report and the extension of `conftest.rotating_star`
# (4 samples, seed 0, instances recorded), by datum and radius
CROSS_RAY_SHA256 = {
    ("twisted", 4):
        "dc4cf1856d90a8402bc567659e8fcfe4c7e1fd84b7498f8982be6b06d4947ccb",
    ("D1", 4):
        "ebb81a1fb6940da003143db103684b9c573015e1c441032dfb8774629424741c",
    ("D2", 3):
        "1c1bffaa2b63247b28ad26268d390a1ab828c282085d24adfa7f72167387cf6a",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_argv(command: str, d, tmp_path) -> list[str]:
    """The CLI arguments of one pinned report; `extend` maps the star of
    the base vertex identically."""
    argv = [command, "--datum", d.name, "--radius", str(RADIUS[d.name])]
    if command == "suite" and d.name == "D2":
        argv += ["--samples", "12"]
    if command == "extend":
        x0 = T.base_vertex()
        phi = tmp_path / "phi.json"
        phi.write_text(json.dumps({"pairs": [
            [S.vertex_to_json(v), S.vertex_to_json(v)]
            for v in [x0] + T.neighbors(d, x0)]}))
        argv += ["--phi", str(phi)]
    return argv


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
    d = t.datum
    x0, x1 = T.base_vertex(), T.ray_vertex(1)
    u_x0 = T.act_word(d, W.generator(1, 1, 1), x0)
    swap = E.greedy_extend(t, E.TreeMap(d, {x0: u_x0, u_x0: x0, x1: x1}))
    return S.dumps_canonical([
        E.check_Li(t, swap, i, record_instances=True).to_json()
        for i in (1, 2)])


@pytest.mark.parametrize("command,name", list(CLI_SHA256))
def test_cli_report_bytes(command, name, request, tmp_path, monkeypatch,
                          capsys):
    # the session datum keeps the balls other tests have already built
    d = request.getfixturevalue(name.lower())
    monkeypatch.setattr(cli, "load_datum", lambda source: d)
    cli.main(cli_argv(command, d, tmp_path))
    assert sha256(capsys.readouterr().out) == CLI_SHA256[command, name]


@pytest.mark.parametrize("name", list(DOT_SHA256))
def test_dot_report_bytes(name, request, monkeypatch, capsys):
    d = request.getfixturevalue(name.lower())
    monkeypatch.setattr(cli, "load_datum", lambda source: d)
    cli.main(["tree", "--datum", name, "--radius", "4", "--format", "dot"])
    assert sha256(capsys.readouterr().out) == DOT_SHA256[name]


def test_suite_failure_report_bytes():
    text = suites_failure_report()
    transport = json.loads(text)[3]
    assert transport["suite"] == "transport"
    assert transport["checked"] == 1508 and len(transport["failures"]) == 20
    assert sha256(text) == FAILURE_SHA256["suites"]


def test_codist_failure_report_bytes(ball_d0_6):
    text = codist_failure_report(ball_d0_6)
    assert len(json.loads(text)["failures"]) == 10
    assert sha256(text) == FAILURE_SHA256["codist"]


def test_check_li_failure_report_bytes(ball_d0_6):
    text = check_li_failure_report(ball_d0_6)
    assert [c["valid"] for c in json.loads(text)] == [False, False]
    assert sha256(text) == FAILURE_SHA256["check_Li"]


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
