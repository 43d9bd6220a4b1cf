"""Command-line interface: exit codes, payloads, and output stability."""

import gc
import json
import random
import subprocess
import sys

import pytest

from gimpl import (
    ExtValue,
    Game,
    GraphicalGame,
    InstanceDoc,
    PaymentPromise,
    RectRegion,
    serialize_instance,
)
import gimpl.cli
from gimpl.cli import main, run

from _support import time_limit


def _write(tmp_path, name, doc: InstanceDoc) -> str:
    path = tmp_path / name
    path.write_text(serialize_instance(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def ex1_file(tmp_path, ex1):
    return _write(tmp_path, "ex1.json", InstanceDoc(game=ex1))


@pytest.fixture
def ex1_verify_file(tmp_path, ex1, ex1_promise_cheap, ex1_region):
    doc = InstanceDoc(
        game=ex1, region=ex1_region, budget=ExtValue(1), promise=ex1_promise_cheap
    )
    return _write(tmp_path, "ex1_verify.json", doc)


def test_analyze_worked_example(ex1_file):
    result = run(["analyze", ex1_file])
    assert result.status == "yes" and result.exit_code == 0
    sets = result.payload["undominated"]["names"]
    assert sets == [["s1", "s2"], ["t1", "t2"]]
    assert result.payload["promise_applied"] is False


def test_analyze_applies_promise(tmp_path, ex1, ex1_promise):
    path = _write(tmp_path, "ex1p.json", InstanceDoc(game=ex1, promise=ex1_promise))
    result = run(["analyze", str(path)])
    assert result.payload["promise_applied"] is True
    assert result.payload["undominated"]["names"] == [["s1"], ["t1"]]


def test_pne_on_graphical_document(tmp_path):
    gg = GraphicalGame.make(
        ["left", "hub"],
        [["T", "F"], ["T", "F"]],
        [(0, 1)],
        [{(0, 0): 2, (0, 1): 1}, {}],
    )
    path = _write(
        tmp_path, "gg.json",
        InstanceDoc(game=gg, region=RectRegion.make([[0], [0]])),
    )
    result = run(["pne", str(path)])
    assert result.status == "yes"
    out = tmp_path / "zero.json"
    out.write_text(json.dumps(result.payload["instance"]), encoding="utf-8")
    verdict = run(["verify", str(out)])
    assert verdict.status == "yes" and verdict.payload["cost"] == 0


def test_verify_yes(ex1_verify_file):
    result = run(["verify", ex1_verify_file])
    assert result.status == "yes" and result.exit_code == 0
    assert result.payload["cost"] == 1
    assert result.payload["holds"] is True


def test_verify_exact_fails(ex1_verify_file):
    result = run(["verify", ex1_verify_file, "--exact"])
    assert result.status == "no" and result.exit_code == 2
    assert result.payload["violation"] == [0, 2]


def test_verify_without_promise_reports_violation(tmp_path, ce1, ce1_region):
    doc = InstanceDoc(game=ce1, region=ce1_region, budget=ExtValue(0))
    path = _write(tmp_path, "ce1.json", doc)
    result = run(["verify", str(path), "--exact"])
    assert result.status == "no" and result.exit_code == 2
    assert result.payload["violation"] == [0, 1]
    assert result.payload["cost"] == 0
    # the subset reading holds: survivors sit inside the desired sets
    assert run(["verify", str(path)]).status == "yes"


def test_error_exit_code(tmp_path):
    result = run(["analyze", str(tmp_path / "missing.json")])
    assert result.status == "error" and result.exit_code == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run(["analyze", str(bad)]).exit_code == 1
    assert run(["frobnicate", "x"]).exit_code == 1
    jobs = run(["solve", str(bad), "--jobs", "1"])  # the option is gone
    assert jobs.exit_code == 1
    assert jobs.payload["error"] == "invalid command line: unrecognized arguments: --jobs 1"


def test_malformed_region_exits_with_one_line_error(tmp_path, ex1):
    document = json.loads(serialize_instance(InstanceDoc(game=ex1)))
    for name, sets in [("negative", [[-1], [0]]), ("flat", [1, [0]])]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dict(document, region={"sets": sets})), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "gimpl.cli", "verify", str(path)], capture_output=True
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["status"] == "error"
        assert proc.stderr.decode().startswith("gimpl: ")
        assert proc.stderr.decode().count("\n") == 1


def test_only_gen_and_decode_import_the_reductions(tmp_path, ex1):
    # importing the CLI and running another subcommand leaves the
    # constructions unloaded; gen loads them on first use
    path = _write(tmp_path, "ex1.json", InstanceDoc(game=ex1))
    script = (
        "import sys, gimpl.cli\n"
        "assert 'gimpl.reductions' not in sys.modules\n"
        f"assert gimpl.cli.run(['analyze', {path!r}]).exit_code == 0\n"
        "assert 'gimpl.reductions' not in sys.modules\n"
        "assert gimpl.cli.run(['gen', 'x3c', '--n', '1', '--seed', '3']).exit_code == 0\n"
        "assert 'gimpl.reductions' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_only_oracle_runs_import_the_oracle(tmp_path, ex1, ex1_region):
    # importing the package and the CLI leaves the oracle unloaded; an oracle
    # run and the package's oracle names load it on first use
    path = _write(tmp_path, "ex1.json", InstanceDoc(game=ex1, region=ex1_region))
    script = (
        "import sys, gimpl, gimpl.cli\n"
        "assert 'gimpl.oracle' not in sys.modules\n"
        f"assert gimpl.cli.run(['solve', {path!r}]).exit_code == 0\n"
        "assert 'gimpl.oracle' not in sys.modules\n"
        f"assert gimpl.cli.run(['oracle', {path!r}]).exit_code == 0\n"
        "assert 'gimpl.oracle' in sys.modules\n"
        "from gimpl import OracleResult, oracle_min_budget, oracle_zero_cost\n"
        "assert oracle_min_budget is gimpl.oracle.oracle_min_budget\n"
        "assert {'OracleResult', 'oracle_min_budget', 'oracle_zero_cost'} <= set(gimpl.__all__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_package_loads_a_module_on_first_use_only():
    # a bare import loads no submodule and still resolves a module name; a
    # parse loads the model and the reader, not the solver, checking or dominance
    script = (
        "import sys, gimpl\n"
        "loaded = lambda: {m for m in sys.modules if m.startswith('gimpl.')}\n"
        "assert loaded() == set(), loaded()\n"
        "assert gimpl.model.MAX_PROFILES == 2**16\n"
        "doc = gimpl.parse_instance(sys.argv[1])\n"
        "assert {'gimpl.solver', 'gimpl.checking', 'gimpl.domination'}.isdisjoint(loaded())\n"
        "assert gimpl.Game is gimpl.model.Game\n"
    )
    text = serialize_instance(InstanceDoc(game=Game.make(["a"], [["x"]], [{}])))
    proc = subprocess.run([sys.executable, "-c", script, text], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_is_its_home_modules_object():
    # dir lists every name before any is loaded; each name is read through
    # the package first, so the lazy path serves it, and must be the very
    # object its defining module holds
    script = (
        "import sys, gimpl\n"
        "assert set(gimpl.__all__) <= set(dir(gimpl))\n"
        "for name in gimpl.__all__:\n"
        "    value = getattr(gimpl, name)\n"
        "    home = value.__module__\n"
        "    assert home.startswith('gimpl.'), (name, home)\n"
        "    assert value is getattr(sys.modules[home], name), name\n"
        "    assert vars(gimpl)[name] is value, name\n"
        "try:\n"
        "    gimpl.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'gimpl' has no attribute 'no_such_name'\", exc\n"
        "else:\n"
        "    raise AssertionError('an unknown name resolved')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_malformed_edge_exits_with_one_line_error(tmp_path):
    document = {
        "format": "gipf-1",
        "kind": "graphical",
        "players": [{"name": "p1", "strategies": ["a"]}, {"name": "p2", "strategies": ["b"]}],
        "edges": [[0, "1"]],
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "gimpl.cli", "analyze", str(path)], capture_output=True
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "error"
    assert proc.stderr.decode() == "gimpl: edge [0, '1'] is not a pair of player indices\n"


def test_solve_counterexample(tmp_path, ce1, ce1_region):
    path = _write(tmp_path, "ce1.json", InstanceDoc(game=ce1, region=ce1_region))
    result = run(["solve", path])
    assert result.status == "yes"
    assert result.payload["delta"] == 0
    assert result.payload["mapping"] == [[], [[1, 0]]]
    # the emitted instance document verifies as-is
    solved = tmp_path / "solved.json"
    solved.write_text(json.dumps(result.payload["instance"]), encoding="utf-8")
    assert run(["verify", str(solved)]).status == "yes"


def test_solve_exactify_pipeline(tmp_path):
    from gimpl import Game

    game = Game.make(
        ["p1", "p2"],
        [["a", "b", "c", "d"], ["e", "f", "g", "h"]],
        [
            {(0, 0): 1, (1, 1): 3, (2, 0): 2, (3, 3): 4},
            {(0, 0): 2, (1, 2): 1, (2, 2): 3, (0, 3): 1},
        ],
    )
    path = _write(
        tmp_path, "eq.json", InstanceDoc(game=game, region=RectRegion.make([[0], [0]]))
    )
    result = run(["solve", str(path), "--exactify"])
    assert result.status == "yes"
    assert result.payload["exactified"] is True
    out = tmp_path / "exact.json"
    out.write_text(json.dumps(result.payload["instance"]), encoding="utf-8")
    verdict = run(["verify", str(out), "--exact"])
    assert verdict.status == "yes"


def test_solve_exactify_reports_margins(tmp_path, ce1, ce1_region):
    path = _write(tmp_path, "ce1.json", InstanceDoc(game=ce1, region=ce1_region))
    result = run(["solve", path, "--exactify"])
    assert result.status == "error"
    assert "not equitable" in result.payload["error"]
    assert "(-1, -1)" in result.payload["error"]


def test_pne_yes_and_no(tmp_path, ce1):
    yes = _write(
        tmp_path, "pne_yes.json",
        InstanceDoc(game=ce1, region=RectRegion.make([[0], [0]])),
    )
    result = run(["pne", yes])
    assert result.status == "yes" and result.payload["pne"] is True
    emitted = tmp_path / "zero.json"
    emitted.write_text(json.dumps(result.payload["instance"]), encoding="utf-8")
    assert run(["verify", str(emitted)]).status == "yes"

    no = _write(
        tmp_path, "pne_no.json",
        InstanceDoc(game=ce1, region=RectRegion.make([[1], [1]])),
    )
    result = run(["pne", no])
    assert result.status == "no" and result.exit_code == 2
    assert result.payload["defector"] == [0, 0]


def test_pne_on_promise_carrying_document(tmp_path, ce1):
    # the region {s2} x {s2} is stable only after sweetening (s2, s2)
    sweetener = PaymentPromise.make(ce1, [{(1, 1): 3}, {(1, 1): 3}])
    doc = InstanceDoc(
        game=ce1, region=RectRegion.make([[1], [1]]), promise=sweetener
    )
    path = _write(tmp_path, "sweet.json", doc)
    result = run(["pne", str(path)])
    assert result.status == "yes" and result.payload["pne"] is True
    # with an input promise the zero-cost promise is emitted standalone
    assert "instance" not in result.payload
    assert result.payload["promise"]


def test_oracle_command(tmp_path, ex1, ex1_region):
    path = _write(tmp_path, "ex1.json", InstanceDoc(game=ex1, region=ex1_region))
    result = run(["oracle", path])
    assert result.status == "yes"
    assert result.payload["delta"] == 1
    assert len(result.payload["landscape"]) == 2


def test_gen_x3c_pipes_into_solver_commands(tmp_path):
    result = run(["gen", "x3c", "--n", "1", "--seed", "0", "--force", "yes"])
    assert result.status == "yes"
    assert result.payload["format"] == "gipf-1"
    path = tmp_path / "x3c.json"
    path.write_text(json.dumps(result.payload), encoding="utf-8")
    assert run(["analyze", str(path)]).status == "yes"
    assert run(["pne", str(path)]).status == "no"


def test_solve_answers_the_two_player_x3c_construction_at_n_2(tmp_path):
    # a raw assignment space of 18^6 x 18^6, which the branch and bound
    # finishes in 18 nodes
    gen = _run_cli("gen", "x3c", "--n", "2", "--seed", "7", "--force", "yes", "--target", "2p")
    assert gen.returncode == 0, gen.stderr
    path = tmp_path / "x3c.json"
    path.write_bytes(gen.stdout)
    solved = _run_cli("solve", str(path))
    assert solved.returncode == 0, solved.stderr
    payload = json.loads(solved.stdout)
    assert payload["delta"] == 2
    out = tmp_path / "solved.json"
    out.write_text(json.dumps(payload["instance"]), encoding="utf-8")
    verified = _run_cli("verify", str(out))
    assert verified.returncode == 0, verified.stderr
    assert json.loads(verified.stdout)["holds"] is True


def test_gen_x3c_graphical_target():
    result = run(["gen", "x3c", "--n", "1", "--seed", "0", "--target", "graphical"])
    assert result.payload["kind"] == "graphical"
    assert result.payload["budget"] == "1/2"


def test_solve_expands_graphical_instances(tmp_path):
    generated = run(["gen", "x3c", "--n", "1", "--seed", "0", "--target", "graphical"])
    path = tmp_path / "graphical.json"
    path.write_text(json.dumps(generated.payload), encoding="utf-8")
    analyzed = run(["analyze", str(path)])
    assert analyzed.payload["kind"] == "graphical"
    solved = run(["solve", str(path)])
    assert solved.status == "yes"
    assert solved.payload["instance"]["kind"] == "normal"
    out = tmp_path / "solved.json"
    out.write_text(json.dumps(solved.payload["instance"]), encoding="utf-8")
    # the emitted normal-form instance verifies at the reported delta
    assert run(["verify", str(out)]).status == "yes"


def test_graphical_expansion_above_profile_cap_is_refused(tmp_path):
    # 18 players with 2 strategies each: 2**18 full profiles, above the cap
    generated = run(
        ["gen", "x3c", "--n", "3", "--seed", "7", "--force", "yes", "--target", "graphical"]
    )
    assert generated.status == "yes"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(generated.payload), encoding="utf-8")
    assert run(["analyze", str(path)]).status == "yes"  # works on the graph directly
    for command in (["solve"], ["oracle"]):
        proc = subprocess.run(
            [sys.executable, "-m", "gimpl.cli", *command, str(path)],
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 1
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and "262144" in lines[0]
        assert json.loads(proc.stdout)["status"] == "error"


def test_gen_seed_env_override(monkeypatch):
    monkeypatch.setenv("GIMPL_SEED", "7")
    with_env = run(["gen", "x3c", "--n", "2", "--force", "yes"])
    explicit = run(["gen", "x3c", "--n", "2", "--seed", "7", "--force", "yes"])
    assert with_env.payload == explicit.payload
    other = run(["gen", "x3c", "--n", "2", "--seed", "8", "--force", "yes"])
    assert with_env.payload != other.payload


def test_gen_seed_env_names_itself_when_not_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("GIMPL_SEED", "abc")
    assert _main(monkeypatch, "gen", "x3c", "--n", "1") == 1
    assert capsys.readouterr().err == "gimpl: GIMPL_SEED must be an integer, got 'abc'\n"


def test_gen_coloring_and_decode(tmp_path):
    edges = tmp_path / "k3.txt"
    edges.write_text("x y\ny z\nx z\n", encoding="utf-8")
    generated = run(["gen", "coloring", "--edges", str(edges)])
    assert generated.status == "yes"

    from gimpl.reductions import (
        brute_coloring,
        coloring_forward_promise,
        coloring_to_exact,
        parse_edge_list,
    )

    graph = parse_edge_list(edges.read_text(encoding="utf-8"))
    game, region, budget = coloring_to_exact(graph)
    promise = coloring_forward_promise(graph, brute_coloring(graph))
    doc = InstanceDoc(game=game, region=region, budget=budget, promise=promise)
    path = _write(tmp_path, "colored.json", doc)
    result = run(["decode", "--kind", "coloring", path])
    assert result.status == "yes"
    coloring = result.payload["coloring"]
    assert sorted(coloring) == ["x", "y", "z"]
    assert len(set(coloring.values())) == 3


def test_decode_x3c_2p(tmp_path):
    from gimpl.reductions import gen_x3c, x3c_forward_promise_2p, x3c_to_two_player

    inst = gen_x3c(1, 0)
    game, region, budget = x3c_to_two_player(inst)
    promise = x3c_forward_promise_2p(inst, (0,))
    doc = InstanceDoc(game=game, region=region, budget=budget, promise=promise)
    path = _write(tmp_path, "x3c.json", doc)
    result = run(["decode", "--kind", "x3c2p", path])
    assert result.status == "yes"
    assert result.payload["cover"] == [0]
    assert result.payload["triples"] == [[0, 1, 2]]


def test_decode_x3c_graphical(tmp_path):
    from gimpl.reductions import (
        gen_x3c,
        x3c_forward_promise_graphical,
        x3c_to_graphical,
    )

    inst = gen_x3c(2, 3, "yes")
    from gimpl.reductions import brute_x3c

    cover = brute_x3c(inst)
    gg, region, budget = x3c_to_graphical(inst)
    promise = x3c_forward_promise_graphical(inst, cover, budget)
    doc = InstanceDoc(game=gg, region=region, budget=budget, promise=promise)
    path = _write(tmp_path, "x3cg.json", doc)
    result = run(["decode", "--kind", "x3cgraph", path])
    assert result.status == "yes"
    assert tuple(result.payload["cover"]) == cover
    # no budget in the document: the construction's 1/2; a budget below the
    # certificate's cost of 1/2 is read as it is and refuses it
    for budget, status in ((None, "yes"), (ExtValue("1/4"), "error")):
        doc = InstanceDoc(game=gg, region=region, budget=budget, promise=promise)
        result = run(["decode", "--kind", "x3cgraph", _write(tmp_path, "x3cg.json", doc)])
        assert result.status == status


def test_decode_without_promise_errors(ex1_file):
    result = run(["decode", "--kind", "x3c2p", ex1_file])
    assert result.status == "error"


def test_stdout_is_stable_json(ex1_verify_file):
    cmd = [sys.executable, "-m", "gimpl.cli", "verify", ex1_verify_file]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["cost"] == 1
    assert first.stderr == b""


def test_cli_exit_code_no(tmp_path, ce1):
    doc = InstanceDoc(
        game=ce1, region=RectRegion.make([[1], [1]]), budget=ExtValue(0)
    )
    path = _write(tmp_path, "no.json", doc)
    proc = subprocess.run(
        [sys.executable, "-m", "gimpl.cli", "pne", str(path)], capture_output=True
    )
    assert proc.returncode == 2


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "gimpl.cli", *argv], capture_output=True, timeout=5
    )


def _assert_one_line_error(proc):
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "error"
    assert proc.stderr.decode().startswith("gimpl: ")
    assert proc.stderr.decode().count("\n") == 1


def test_bad_inputs_exit_quickly_with_one_line_error(tmp_path, ex1):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000, encoding="utf-8")
    _assert_one_line_error(_run_cli("analyze", str(deep)))

    document = json.loads(serialize_instance(InstanceDoc(game=ex1)))
    exponent = tmp_path / "exponent.json"
    exponent.write_text(
        json.dumps(dict(document, region={"sets": [[0], [0]]}, budget="1e100000000")),
        encoding="utf-8",
    )
    proc = _run_cli("verify", str(exponent))
    _assert_one_line_error(proc)
    assert "malformed rational" in proc.stderr.decode()


def test_gen_x3c_force_no_refuses_a_large_cover_search():
    # one draw at n_hat = 12 would search C(36, 12) subsets for a cover
    with time_limit(5, "gen x3c --n 12 --force no"):
        proc = _run_cli("gen", "x3c", "--n", "12", "--seed", "1", "--force", "no")
    _assert_one_line_error(proc)
    assert " 1251677700 " in proc.stderr.decode()
    for n_hat in ("2", "3"):
        result = run(["gen", "x3c", "--n", n_hat, "--seed", "1", "--force", "no"])
        assert result.status == "yes"


def test_oracle_names_the_tie_no_off_region_profile_can_break(tmp_path):
    # only player 1 may play anything, so no opponent of player 0 leaves the
    # region and nothing tells y apart from x
    game = Game.make(["a", "b"], [["x", "y"], ["u", "v"]], [{}, {}])
    region = RectRegion.make([[0], [0, 1]])
    proc = _run_cli("oracle", _write(tmp_path, "shy.json", InstanceDoc(game=game, region=region)))
    _assert_one_line_error(proc)
    assert proc.stderr.decode() == (
        "gimpl: assignment 0<-1 for player 0 fails its domination check: the two tie, "
        "and no opponent profile leaves the region to break the tie\n"
    )


def test_solve_and_pne_pass_the_tie_no_off_region_profile_can_break(tmp_path):
    # README's heads-up: with the oracle's game and region, solve and pne say
    # yes, while verify finds y undominated at infinite cost
    game = Game.make(["a", "b"], [["x", "y"], ["u", "v"]], [{}, {}])
    region = RectRegion.make([[0], [0, 1]])
    path = _write(tmp_path, "shy.json", InstanceDoc(game=game, region=region))
    solved = _run_cli("solve", path)
    assert solved.returncode == 0
    payload = json.loads(solved.stdout)
    assert payload["delta"] == 0
    emitted = tmp_path / "solved.json"
    emitted.write_text(json.dumps(payload["instance"]), encoding="utf-8")
    checked = _run_cli("verify", str(emitted))
    assert checked.returncode == 2
    report = json.loads(checked.stdout)
    assert report["cost"] == "inf" and report["violation"] == [0, 1]
    pne = _run_cli("pne", path)
    assert pne.returncode == 0 and json.loads(pne.stdout)["pne"] is True


def test_decode_rejects_a_graphical_document_for_normal_kinds(tmp_path):
    names = ["v:a", "v:b", "c:a:1", "c:a:2", "c:a:3", "c:b:1", "c:b:2", "c:b:3"]
    document = {
        "format": "gipf-1",
        "kind": "graphical",
        "players": [{"name": "p0", "strategies": names}, {"name": "p1", "strategies": names}],
        "edges": [[0, 1]],
        "promise": [{"player": 0, "profile": [0, 0], "value": 1}],
    }
    path = tmp_path / "graphical.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for kind in ("coloring", "x3c2p"):
        proc = _run_cli("decode", "--kind", kind, str(path))
        _assert_one_line_error(proc)
        assert proc.stderr.decode() == f"gimpl: {kind} decoding needs a normal instance\n"


def _main(monkeypatch, *argv):
    """Exit code of ``gimpl.cli.main`` on a command line, run in-process."""
    monkeypatch.setattr(sys, "argv", ["gimpl", *argv])
    with pytest.raises(SystemExit) as exit_info:
        main()
    return exit_info.value.code


def test_main_pauses_the_collector_and_restores_it(
    monkeypatch, capsys, tmp_path, ex1_verify_file, ce1
):
    # a yes, a no and an error exit, each run and written with the collector
    # paused; then a write to a closed pipe and a command that raises
    no = _write(tmp_path, "no.json", InstanceDoc(game=ce1, region=RectRegion.make([[1], [1]])))
    seen, dumped = [], []
    dump = json.dump

    def watched(argv):
        seen.append(gc.isenabled())
        return run(argv)

    def watched_dump(*args, **kwargs):
        dumped.append(gc.isenabled())
        return dump(*args, **kwargs)

    def broken_dump(*args, **kwargs):
        raise BrokenPipeError

    monkeypatch.setattr(gimpl.cli, "run", watched)
    monkeypatch.setattr(gimpl.cli.json, "dump", watched_dump)
    cases = [(["verify", ex1_verify_file], 0), (["pne", no], 2), (["verify", "missing.json"], 1)]
    assert gc.isenabled()
    try:
        for argv, code in cases:
            assert _main(monkeypatch, *argv) == code
            assert gc.isenabled()
        gc.disable()
        for argv, code in cases:
            assert _main(monkeypatch, *argv) == code
            assert not gc.isenabled()
        gc.enable()
        with open(tmp_path / "closed.txt", "w") as out, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", out)
            patch.setattr(gimpl.cli.json, "dump", broken_dump)
            assert _main(patch, "pne", no) == 2
        assert gc.isenabled()
        monkeypatch.setattr(gimpl.cli, "run", lambda argv: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            main()
        assert gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False] * 7
    assert dumped == [False] * 6
    capsys.readouterr()


def test_bad_command_line_prints_one_stderr_line(monkeypatch, capsys):
    for argv, reason in [
        (["solve", "x.json", "--jobs", "1"], "unrecognized arguments: --jobs 1"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["gen", "x3c", "--n", "two"], "argument --n: invalid int value: 'two'"),
        ([], "the following arguments are required: command"),
    ]:
        assert _main(monkeypatch, *argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"gimpl: invalid command line: {reason}")
        assert captured.err.count("\n") == 1
        assert json.loads(captured.out)["status"] == "error"
    assert _main(monkeypatch, "solve", "--help") == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: gimpl solve") and captured.err == ""


def test_verify_refuses_an_oversized_undominated_region(tmp_path):
    # a 20-player path where every strategy stays undominated: summing the
    # payments would enumerate 2^20 profiles
    n = 20
    edges = [(i, i + 1) for i in range(n - 1)]
    game = GraphicalGame.make(
        [f"p{i}" for i in range(n)], [["a", "b"]] * n, edges, [None] * n
    )
    promise = PaymentPromise.make(
        game,
        [{(s, *[0] * len(game.neighborhoods[i])): 1 for s in (0, 1)} for i in range(n)],
    )
    doc = InstanceDoc(
        game=game, region=RectRegion.full(game), budget=ExtValue(n), promise=promise
    )
    proc = _run_cli("verify", _write(tmp_path, "path.json", doc))
    _assert_one_line_error(proc)
    assert "above the 65536 cap" in proc.stderr.decode()


def test_oracle_refuses_a_two_player_game_above_the_profile_cap(tmp_path):
    # two players of 1,024 strategies, no utilities and the full region: one
    # assignment, each player 1,024 opponent profiles, but 2^20 profiles to price
    document = {
        "format": "gipf-1",
        "kind": "normal",
        "players": [
            {"name": f"p{i}", "strategies": [f"s{k}" for k in range(1024)]} for i in (0, 1)
        ],
        "region": {"sets": [list(range(1024))] * 2},
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = _run_cli("oracle", str(path))
    _assert_one_line_error(proc)
    assert proc.stderr.decode() == (
        "gimpl: the game has 1048576 profiles, above the 65536 cap on the oracle's "
        "enumeration\n"
    )


@pytest.mark.parametrize(
    "command, count",
    [
        ("solve", 131072),
        ("pne", 131072),
        ("analyze", 131072),
        ("verify", 131072),
        ("oracle", 131072),
    ],
)
def test_whole_game_steps_refuse_before_enumerating(tmp_path, command, count):
    # 18 players with two strategies each, no utilities and one desired
    # strategy per player: the assignment space has one element, but the
    # off-region payments and the payoff columns each range over 2^17
    # opponent profiles
    n = 18
    game = GraphicalGame.make([f"p{i}" for i in range(n)], [["a", "b"]] * n, [], [None] * n)
    document = json.loads(serialize_instance(InstanceDoc(game=game)))
    document.update(kind="normal", region={"sets": [[0]] * n})
    del document["edges"]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = _run_cli(command, str(path))
    _assert_one_line_error(proc)
    assert f" {count} " in proc.stderr.decode()


def test_solve_refuses_a_large_desired_region_before_enumerating(tmp_path):
    # 20 players with two strategies each, no utilities and the full region:
    # one assignment, but 2^20 desired profiles to price
    n = 20
    document = {
        "format": "gipf-1",
        "kind": "normal",
        "players": [{"name": f"p{i}", "strategies": ["a", "b"]} for i in range(n)],
        "region": {"sets": [[0, 1]] * n},
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = _run_cli("solve", str(path))
    _assert_one_line_error(proc)
    assert proc.stderr.decode() == (
        "gimpl: desired region has 1048576 profiles, above the 65536 cap\n"
    )


def test_pne_refuses_a_large_desired_region_before_the_check(tmp_path):
    # a bare 400 x 400 game with the full region is trivially stable, but
    # verify could not price the promise pne would emit for it
    document = {
        "format": "gipf-1",
        "kind": "normal",
        "players": [
            {"name": f"p{i}", "strategies": [f"s{k}" for k in range(400)]} for i in (0, 1)
        ],
        "region": {"sets": [list(range(400))] * 2},
    }
    path = tmp_path / "full.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = _run_cli("pne", str(path))
    _assert_one_line_error(proc)
    assert proc.stderr.decode() == (
        "gimpl: desired region has 160000 profiles, above the 65536 cap\n"
    )


_MUTANTS = [
    "1e100000000", 1.5, True, False, None, 10**30, -1, 0, 2, "inf", "1/0", "x",
    [], {}, [[]], [[0], [0]], [[[0, [1]], []]], {"player": 0, "profile": [0, 0], "value": 1},
]


def _node_paths(node, path=()):
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _node_paths(child, path + (key,))


def _mutate(document, rng):
    """A deep copy of ``document`` with one or two nodes replaced or deleted."""
    document = json.loads(json.dumps(document))
    for _ in range(rng.choice((1, 2))):
        *parents, key = rng.choice(list(_node_paths(document)))
        parent = document
        for step in parents:
            parent = parent[step]
        if rng.random() < 0.25:
            del parent[key]
        else:
            parent[key] = json.loads(json.dumps(rng.choice(_MUTANTS)))
    return document


def test_mutated_documents_exit_cleanly(tmp_path, ex1, ex1_region, ex1_promise):
    path_game = GraphicalGame.make(
        ["a", "b", "c"],
        [["T", "F"], ["T", "F"], ["T", "F"]],
        [(0, 1), (1, 2)],
        [{(0, 0): 2, (1, 1): 1}, {(0, 0, 0): 1, (1, 0, 1): 3}, {(0, 0): 1, (1, 1): 2}],
    )
    bases = [
        json.loads(serialize_instance(InstanceDoc(
            game=ex1, region=ex1_region, budget=ExtValue("11/10"), promise=ex1_promise
        ))),
        json.loads(serialize_instance(InstanceDoc(
            game=path_game,
            region=RectRegion.make([[0], [0, 1], [0]]),
            budget=ExtValue(1),
            promise=PaymentPromise.make(path_game, [{(0, 0): 1}, {}, {}]),
        ))),
    ]
    rng = random.Random(9)
    path = tmp_path / "mutant.json"
    emitted = tmp_path / "emitted.json"
    solved = 0
    for _ in range(200):
        mutant = json.dumps(_mutate(rng.choice(bases), rng))
        path.write_text(mutant, encoding="utf-8")
        for command in ("analyze", "verify", "pne", "solve"):
            # a hang fails the test and names the mutant instead of stalling the suite
            with time_limit(5, f"{command} on mutant {mutant}"):
                result = run([command, str(path)])
            assert result.status in ("yes", "no", "error")
            assert json.loads(json.dumps(result.payload))["status"] == result.status
            if command == "solve" and result.status == "yes":
                emitted.write_text(json.dumps(result.payload["instance"]), encoding="utf-8")
                with time_limit(5, f"verify of the solve output on mutant {mutant}"):
                    assert run(["verify", str(emitted)]).status == "yes"
                solved += 1
    assert solved  # some mutants stay solvable, so the re-verification runs


def _resize(document, rng):
    """A copy of ``document`` with its player count, one player's strategy
    count or one region set's size changed. Half the time the utility
    profiles and region sets that the change touches are adjusted to match,
    so valid documents come out as well as broken ones."""
    document = json.loads(json.dumps(document))
    players, sets = document["players"], document["region"]["sets"]
    utilities = document["utilities"]
    adjust = rng.random() < 0.5
    what = rng.choice(("players", "strategies", "region"))
    if what == "players" and rng.random() < 0.5:  # a new last player
        players.append({"name": "extra", "strategies": ["e0", "e1", "e2"][: rng.randint(1, 3)]})
        if adjust:
            sets.append([0])
            for entry in utilities:
                entry["profile"].append(0)
    elif what == "players":  # drop the last player
        players.pop()
        if adjust:
            sets.pop()
            document["utilities"] = [
                dict(entry, profile=entry["profile"][:-1])
                for entry in utilities
                if entry["player"] < len(players) and entry["profile"][-1] == 0
            ]
    elif what == "strategies" and players:
        i = rng.randrange(len(players))
        names = players[i]["strategies"]
        size = max(0, len(names) + rng.choice((-3, -1, 1, 3)))
        players[i]["strategies"] = (names + [f"x{k}" for k in range(len(names), size)])[:size]
        if adjust and i < len(sets):
            sets[i] = [s for s in sets[i] if s < size]
            document["utilities"] = [entry for entry in utilities if entry["profile"][i] < size]
    elif sets and players:
        i = rng.randrange(min(len(sets), len(players)))
        outside = sorted(set(range(len(players[i]["strategies"]))) - set(sets[i]))
        if outside and rng.random() < 0.5:
            sets[i] = sorted(sets[i] + [rng.choice(outside)])
        elif sets[i]:
            sets[i].remove(rng.choice(sets[i]))
    return document


def test_resized_construction_documents_exit_cleanly(monkeypatch, capsys, tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text("a b\nb c\n", encoding="utf-8")
    bases = [
        run(["gen", "x3c", "--n", "1", "--seed", "0"]).payload,
        run(["gen", "coloring", "--edges", str(edges)]).payload,
    ]
    rng = random.Random(20)
    path = tmp_path / "resized.json"
    seen = set()
    for _ in range(150):
        document = rng.choice(bases)
        for _ in range(rng.choice((1, 2))):
            document = _resize(document, rng)
        mutant = json.dumps(document)
        path.write_text(mutant, encoding="utf-8")
        for command in ("analyze", "verify", "pne", "solve"):
            with time_limit(5, f"{command} on resized {mutant[:2000]}"):
                code = _main(monkeypatch, command, str(path))
            captured = capsys.readouterr()
            assert code in (0, 1, 2)
            assert json.loads(captured.out)["status"] == ("yes", "error", "no")[code]
            if code == 1:
                assert captured.err.startswith("gimpl: ") and captured.err.count("\n") == 1
            else:
                assert captured.err == ""
            seen.add((command, code))
    # the resized documents reach answers as well as refusals
    assert {("solve", 0), ("solve", 1), ("pne", 2)} <= seen
