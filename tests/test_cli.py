import json

import pytest

from conftest import (MAPS, component_graph_to_dot, identity_star,
                      rotating_star, swap_map, twisted_datum)
from nagaotree import cli
from nagaotree import datum as D
from nagaotree import extension as E
from nagaotree import serialize as S
from nagaotree import suites as SU
from nagaotree import tree as T
from nagaotree import words as W


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_builtin(capsys):
    code, out = run(capsys, "validate", "--datum", "D0")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and payload["k"] == 3


def test_validate_rejects_small_index(tmp_path, capsys):
    # k = 2 datum: Gamma0 = C2, trivial H0
    obj = {
        "gamma0": {"order": 2, "table": [[0, 1], [1, 0]]},
        "h0": [0],
        "roots": {"prefix": [], "period": [
            {"group": {"order": 2, "table": [[0, 1], [1, 0]]}}
        ]},
    }
    p = tmp_path / "small.json"
    p.write_text(json.dumps(obj))
    code, out = run(capsys, "validate", "--datum", str(p))
    assert code == 2
    assert "IndexTooSmall" in out


@pytest.mark.parametrize("command", ["validate", "tree", "suite", "extend", "codist"])
def test_malformed_datum_file_exit_2(command, tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"pairs": []}))
    extra = ["--phi", str(phi)] if command == "extend" else []
    code, out = run(capsys, command, "--datum", str(p), *extra)
    assert code == 2
    payload = json.loads(out)
    assert payload["command"] == command
    assert payload["ok"] is False
    assert payload["error"] == "JSONDecodeError"
    assert payload["detail"]


_C2 = {"order": 2, "table": [[0, 1], [1, 0]]}
_C3 = {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
_OK_DATUM = {"gamma0": _C3, "h0": [0], "roots": {"period": [{"group": _C2}]}}


def _json_file(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _c2_action(row):
    return dict(_OK_DATUM, roots={"period": [{"group": _C2,
                                              "action": {"0": row}}]})


@pytest.mark.parametrize("datum,phi", [
    ([], None),
    ({"gamma0": 5}, None),
    (dict(_OK_DATUM, h0=0), None),
    (dict(_OK_DATUM, h0=[0, 7]), None),
    (_c2_action([0]), None),
    (_c2_action([0, 5]), None),
    (dict(_OK_DATUM, roots=[]), None),
    (dict(_OK_DATUM, roots={"period": [{"group": _C2, "action": 5}]}), None),
    (None, []),
    (None, {"pairs": [1]}),
    (None, {"pairs": [[1, 2]]}),
], ids=["datum-list", "gamma0-int", "h0-int", "h0-out-of-range",
        "action-row-short", "action-image-out-of-range", "roots-list",
        "action-int", "phi-list",
        "phi-pair-int", "phi-vertex-int"])
def test_malformed_input_file_exit_2(datum, phi, tmp_path, capsys):
    # a file of the wrong shape is invalid input, never a traceback
    argv = ["validate"]
    if datum is None:
        argv = ["extend", "--phi", _json_file(tmp_path / "phi.json", phi)]
    argv += ["--datum", "D0" if datum is None
             else _json_file(tmp_path / "datum.json", datum)]
    code, out = run(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["command"] == argv[0] and payload["ok"] is False


def test_validate_custom_datum_file(tmp_path, capsys):
    obj = D.datum_to_json(D.builtin("D3"))
    p = tmp_path / "d3.json"
    p.write_text(json.dumps(obj))
    code, out = run(capsys, "validate", "--datum", str(p))
    assert code == 0
    assert json.loads(out)["biregular"] is False


def test_tree_json_and_dot(tmp_path, capsys):
    code, out = run(capsys, "tree", "--datum", "D0", "--radius", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["tree"]["vertices"]) == 10
    assert len(payload["tree"]["edges"]) == 9
    # the directory of --out does not exist yet; the writer creates it
    dot = tmp_path / "exports" / "ball.dot"
    code, _ = run(capsys, "tree", "--datum", "D0", "--radius", "2",
                  "--format", "dot", "--out", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph ball {") and "rank=same" in text


def test_suite_passes_on_d0(capsys):
    code, out = run(capsys, "suite", "--datum", "D0", "--radius", "4",
                    "--suites", "degrees,horoball,codist")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] and len(payload["reports"]) == 3


def test_suite_failure_exit_code(monkeypatch, capsys):
    bad = twisted_datum(corrupt=True)
    monkeypatch.setattr(cli, "load_datum", lambda name: bad)
    code, out = run(capsys, "suite", "--datum", "ignored", "--radius", "4",
                    "--suites", "transport", "--samples", "60")
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"]
    assert payload["reports"][0]["failures"]


def _refused(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suite_unknown_name_exit_2(capsys):
    code, out, err = _refused(capsys, "suite", "--datum", "D0",
                              "--suites", "degrees,foo")
    assert code == 2 and out == ""
    assert err.startswith("invalid config: unknown suites foo;")


def test_run_suites_refuses_unknown_name_before_any_suite(d0, monkeypatch):
    ran = []
    monkeypatch.setattr(SU, "suite_degrees", lambda *args: ran.append(args))
    with pytest.raises(ValueError, match="'nope'"):
        SU.run_suites(d0, 2, names=("degrees", "nope"))
    assert ran == []


def test_suite_negative_samples_exit_2(capsys):
    # a negative count used to draw from an empty range and pass the sweep
    code, out, err = _refused(capsys, "suite", "--datum", "D0", "--radius",
                              "3", "--suites", "transport", "--samples", "-3")
    assert code == 2 and out == ""
    assert err == "invalid config: samples must be nonnegative\n"
    with pytest.raises(ValueError):
        cli.RunConfig(samples=-1)


def test_suite_level_below_one_exit_2(capsys):
    # a level below 1 used to run silently as level 2
    code, out, err = _refused(capsys, "suite", "--datum", "D0", "--radius",
                              "2", "--level=-3")
    assert code == 2 and out == ""
    assert err == "invalid config: level must be at least 1\n"
    with pytest.raises(ValueError):
        cli.RunConfig(level=0)


def test_suite_level_floor_is_two(capsys):
    # --level 1, the default, checks levels 1 and 2 exactly as --level 2
    argv = ("suite", "--datum", "D0", "--radius", "2",
            "--suites", "transport,li,horoball")
    code, out = run(capsys, *argv, "--level", "1")
    assert code == 0
    transport, li, horoball = json.loads(out)["reports"]
    assert transport["info"]["levels"] == [1, 2]
    assert horoball["info"]["max_i"] == 3
    assert run(capsys, *argv, "--level", "2") == (code, out)


def test_suite_empty_selection_exit_2(capsys):
    # all() over no reports used to pass the run
    code, out, err = _refused(capsys, "suite", "--datum", "D0", "--radius",
                              "2", "--suites", ",")
    assert code == 2 and out == ""
    assert err == "invalid config: no suite selected\n"


def test_tree_negative_radius_exit_2(capsys):
    code, out, err = _refused(capsys, "tree", "--radius", "-1")
    assert code == 2 and out == ""
    assert err == "invalid config: radius must be nonnegative\n"


def test_datum_file_empty_period_exit_2(tmp_path, capsys):
    # a prefix alone is not an eventually periodic schedule
    obj = dict(_OK_DATUM, roots={"prefix": [{"group": _C2}], "period": []})
    code, out = run(capsys, "validate", "--datum",
                    _json_file(tmp_path / "datum.json", obj))
    assert code == 2
    assert json.loads(out) == {
        "command": "validate", "ok": False, "error": "BadSchedule",
        "detail": "schedule must be eventually periodic: empty period"}


@pytest.mark.parametrize("command", ["validate", "suite", "extend", "codist"])
def test_ignored_option_exit_2(command, capsys):
    # only tree writes dot; the other commands do not take --format
    extra = ["--phi", "phi.json"] if command == "extend" else []
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--datum", "D0", "--format", "dot", *extra])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the command's own parser refuses it, so its usage line is shown
    assert captured.err.startswith(f"usage: nagaotree {command} ")
    assert (f"nagaotree {command}: error: unrecognized arguments: --format dot"
            in captured.err)


def test_reports_byte_identical(capsys):
    _, out1 = run(capsys, "suite", "--datum", "D3", "--radius", "4",
                  "--suites", "degrees,transitivity,codist", "--seed", "5")
    _, out2 = run(capsys, "suite", "--datum", "D3", "--radius", "4",
                  "--suites", "degrees,transitivity,codist", "--seed", "5")
    assert out1 == out2


def _phi_file(tmp_path, d, pairs, name="phi.json"):
    obj = {"pairs": [[S.vertex_to_json(a), S.vertex_to_json(b)]
                     for a, b in pairs.items()]}
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


COMMITTED_MAPS = [
    ("D0", "star-k3.json", identity_star),
    ("D1", "star-k3.json", identity_star),
    ("D3", "star-k3.json", identity_star),
    ("D2", "star-d2.json", identity_star),
    ("D2", "rotate-d2.json", rotating_star),
    ("D0", "swap-d0.json", swap_map),
]


@pytest.mark.parametrize("name,path,oracle", COMMITTED_MAPS)
def test_committed_map(name, path, oracle, request):
    # each maps/ file loads to exactly the map its oracle builds, in order
    d = request.getfixturevalue(name.lower())
    loaded, built = cli.load_map(d, str(MAPS / path)), oracle(d)
    assert list(loaded.pairs.items()) == list(built.pairs.items())
    assert loaded.backing is None


def test_committed_maps_all_have_an_oracle():
    assert ({path for _, path, _ in COMMITTED_MAPS}
            == {p.name for p in MAPS.iterdir()})


def test_extend_identity(tmp_path, capsys):
    out_file = tmp_path / "ext.json"
    code, _ = run(capsys, "extend", "--datum", "D0", "--radius", "6",
                  "--phi", str(MAPS / "star-k3.json"), "--seed", "1",
                  "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["ok"]
    assert payload["report"]["certificate"]["valid"]
    assert payload["report"]["selected_i"] == 2


def test_extend_identity_d2_r3(d2, capsys):
    # D2 at i = 2 has 51,696 fallback shifts per commensuration sample
    _, rep = E.density_pipeline(d2, identity_star(d2), 3, n_samples=4,
                                seed=0, record_instances=True)
    cert = rep.certificate
    assert rep.selected_i == 2 and cert.valid
    assert (cert.condition_a.checked, cert.condition_a.skipped) == (7, 0)
    assert (cert.condition_b.checked, cert.condition_b.skipped) == (1, 0)
    assert [e["ok"] for e in rep.commensuration.entries] == [True] * 4
    # the report bytes are pinned as test_golden's extend-D2-r3
    code, out = run(capsys, "extend", "--datum", "D2", "--radius", "3",
                    "--phi", str(MAPS / "star-d2.json"))
    assert code == 0
    assert json.loads(out)["report"] == json.loads(
        json.dumps(rep.to_json()))


def test_extend_swap_nontrivial(capsys):
    code, out = run(capsys, "extend", "--datum", "D0", "--radius", "6",
                    "--phi", str(MAPS / "swap-d0.json"), "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    ext_pairs = payload["extension"]["pairs"]
    assert len(ext_pairs) >= 190
    assert payload["report"]["note"].startswith("commensuration is sample-verified")


def test_extend_escaping_ball_exit_3(tmp_path, capsys):
    d = D.builtin("D0")
    far = (W.EMPTY, 1, 9)
    path = _phi_file(tmp_path, d, {far: far})
    code, out = run(capsys, "extend", "--datum", "D0", "--radius", "6",
                    "--phi", path)
    assert code == 3
    assert "CannotExtendInTruncation" in out


def test_extend_non_adjacent_map_exit_2(tmp_path, capsys):
    # level-preserving but not adjacency-preserving: the library refuses it
    # inside the command, and the refusal is invalid input, not a truncation
    d = D.builtin("D0")
    x0, nb0 = T.base_vertex(), T.ray_vertex(1)
    path = _phi_file(tmp_path, d, {
        x0: x0, nb0: T.act_word(d, W.generator(2, 1, 1), nb0)})
    code, out = run(capsys, "extend", "--datum", "D0", "--phi", path)
    assert code == 2
    assert json.loads(out) == {
        "command": "extend", "ok": False, "error": "NotIsomorphism",
        "detail": "edge ((), 0, 0)~((), 1, 1) not preserved"}


def test_extend_bad_phi_exit_2(tmp_path, capsys):
    p = tmp_path / "phi.json"
    p.write_text(json.dumps({"pairs": [[{"word": [], "ray": 9, "level": 1},
                                        {"word": [], "ray": 1, "level": 1}]]}))
    code, _ = run(capsys, "extend", "--datum", "D0", "--radius", "6",
                  "--phi", str(p))
    assert code == 2


def test_extend_duplicate_source_exit_2(tmp_path, capsys):
    # x_{1,1} listed with two images: a relation, not a map
    x11, x12 = (W.EMPTY, 1, 1), (W.EMPTY, 2, 1)
    p = tmp_path / "phi.json"
    p.write_text(json.dumps({"pairs": [
        [S.vertex_to_json(x11), S.vertex_to_json(x11)],
        [S.vertex_to_json(x11), S.vertex_to_json(x12)]]}))
    code, out = run(capsys, "extend", "--datum", "D0", "--radius", "4",
                    "--phi", str(p))
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["error"] == "NotIsomorphism"
    assert "listed twice" in payload["detail"]


def test_codist_command(capsys):
    code, out = run(capsys, "codist", "--datum", "D2", "--radius", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["verification"]["checked"] > 0


def test_vertex_json_roundtrip():
    d = D.builtin("D3")
    v = (W.delta_mul(d, W.generator(1, 2, 2), W.generator(3, 1, 1)), 3, 1)
    v = (W.canon_coset(d, v[0], 1, 3), 3, 1)
    T.validate_address(d, v)
    assert S.vertex_from_json(d, S.vertex_to_json(v)) == v


def test_component_graph_dot(d0):
    from nagaotree import horo as H
    t = T.ball(d0, T.base_vertex(), 4)
    g = H.component_graph(t, 1)
    dot = component_graph_to_dot(g)
    assert dot.startswith("graph components_1 {")
    assert "--" in dot


def test_readme_datum_example_parses(tmp_path, capsys):
    # the custom-datum snippet shown in the README is a valid k=3 datum
    obj = {
        "gamma0": {"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        "h0": [0],
        "roots": {"prefix": [], "period": [
            {"group": {"order": 2, "table": [[0, 1], [1, 0]]}}
        ]},
    }
    p = tmp_path / "readme.json"
    p.write_text(json.dumps(obj))
    code, out = run(capsys, "validate", "--datum", str(p))
    assert code == 0
    assert json.loads(out)["k"] == 3


def test_console_script_entry_point():
    import subprocess
    import sys
    res = subprocess.run([sys.executable, "-m", "nagaotree.cli",
                          "validate", "--datum", "D1"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert json.loads(res.stdout)["ok"]
