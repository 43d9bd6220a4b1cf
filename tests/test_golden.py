"""Byte-identical CLI output on a fixed set of instances.

Each case runs one subcommand through ``gimpl.cli.run`` and compares the
sha256 of ``json.dumps(payload, indent=2)`` together with the exit code
against a digest recorded once and checked to repeat across fresh
interpreters. A refactor that keeps every delta, promise, mapping and exit
code keeps these digests; any change to the emitted JSON shows up here.

A second list, ``SEARCH_GOLDEN``, runs ``solve`` alone on instances whose
raw assignment spaces (65,536 and 531,441 assignments) only the search's
pruning gets through in test time; ``oracle`` cannot enumerate them.
``PATH_GOLDEN`` pins ``solve`` and then ``verify`` on the generated X3C
graphical n = 2 document, whose promise has 36,336 entries.
``EXACTIFY_GOLDEN`` pins ``solve_exact`` in-process on 200 seeded instances,
equitable two-player ones alternating with 2- and 3-player games on sweep-like
regions: per instance its delta, mapping and sorted promise entries, or its
refusal message. ``LAYOUT_GOLDEN`` pins the library calls that read a game's
key layout, in-process on 200 seeded games, normal-form ones alternating with
graphical ones, each with a sampled promise: ``undominated_region``,
``verify`` in both modes, ``is_pne``, ``pne_promise`` and, on normal-form
games, ``min_budget_solve``.

The digests hash the standard library's rendering of each payload. Two more
tests tie what the program writes to that rendering: ``gimpl.cli.main``'s
stdout on every case, and ``serialize_instance`` on every instance.

To print the current digests: ``PYTHONPATH=src:tests python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from gimpl import (
    ExtValue,
    Game,
    InstanceDoc,
    ModifiedGameView,
    PaymentPromise,
    RectRegion,
    is_pne,
    min_budget_solve,
    parse_instance,
    pne_promise,
    serialize_instance,
    solve_exact,
    undominated_region,
    verify,
)
from gimpl.cli import main, run
from gimpl.instancefmt import instance_to_dict

from _support import (
    mixed_utility,
    random_equitable_instance,
    random_game,
    random_graphical,
    random_promise,
    random_region,
)

COMMANDS = {
    "analyze": ["analyze"],
    "solve": ["solve"],
    "solve-exactify": ["solve", "--exactify"],
    "pne": ["pne"],
    "oracle": ["oracle"],
}

GOLDEN = {
    ('ce1', 'oracle'): '612a7ca536ed39bb429a83ac14b1bd0e427a546d473ab19fbea5206d49a1519f exit=0',
    ('ce1', 'pne'): 'f35a5d33d7bce1a2e497398f4e2d794661c14eb571491920d26e53b771b4efbb exit=0',
    ('ce1', 'solve'): 'ae57dc269e64ee8ef482338fa3c8902f454b46c18384e9c54d900cb508efd055 exit=0',
    ('ce1', 'solve-exactify'): '980b18f1cdc0219a9b5b04120233252effbedd2f6d3bd29caa2c8e9b1fd04090 exit=1',
    ('ex1', 'oracle'): '45492cc78afd03314078a3ca8c0464c487a0127de0292bd93b65463fb0c6d8e9 exit=0',
    ('ex1', 'pne'): 'bf86c2eec8b4823526ccf310196ef076c6e0441cbb67f5f501cea9d221db6d53 exit=2',
    ('ex1', 'solve'): '2ca0f5e5d9f734773f42a015ba53915910daddc721a0b6b7d4cdf09cb06af465 exit=0',
    ('ex1', 'solve-exactify'): 'c60df6ad289f5d76589666f79660c2fdf572c517459ea9d55eb981a22ac17cf9 exit=1',
    ('random-equitable', 'oracle'): '25391dd4a89033f4a0493737a10828c36f3b8b94c80124fda1e490acece61ce7 exit=0',
    ('random-equitable', 'pne'): 'bd50c38b0c1d68ca61ab161738f7a17b38380abd0af53f8b1a58fe42f2c5b987 exit=0',
    ('random-equitable', 'solve'): '5003c5a3b6ffdee752fcb58ee9a4f879c1551d3bc7bb2c1e9ba4b084a6e40155 exit=0',
    ('random-equitable', 'solve-exactify'): 'cca7b9967cab703196af0236ea04243bbe578f439089f556f778aa84b44ef78f exit=0',
    ('x3c-graphical-n1', 'oracle'): '749963d83b4b88b439404b9af53b56cfa3fc74dff974b3c4e0250ef7beb5b99b exit=0',
    ('x3c-graphical-n1', 'pne'): 'bf86c2eec8b4823526ccf310196ef076c6e0441cbb67f5f501cea9d221db6d53 exit=2',
    ('x3c-graphical-n1', 'solve'): '66e90e5b0debebddd0868eedd3a8462cf3109390cf4b8a2bddf7f62dfb273e2d exit=0',
    ('x3c-graphical-n1', 'solve-exactify'): '8bca24277011b96952b6207aa362322116f69402c4f014ea91fa7d717a3b7fbb exit=0',
    # added later, recorded the same way before the code they pin changed
    ('ce1', 'analyze'): '17feece099e4f4633048f8089b8a99ecbf22a1d8914ea3a0b1b9384b114de6e8 exit=0',
    ('ce1-sweetened', 'analyze'): 'd15083498395d4cda412787ddacd7a6730b1dac38ce9e7e45d26d5f74e5c2da2 exit=0',
    ('ce1-sweetened', 'oracle'): 'dd354c840f506706d013951e12d2381e3bb6ba41f2eacb25cf77e05f005f3448 exit=0',
    ('ce1-sweetened', 'pne'): '05ac16ddc270f2aa433fbaa8274ef6347c4021953966877faa203d59fe768628 exit=0',
    ('ce1-sweetened', 'solve'): '84eaba6e1fadf4220615b7e573c62814bf289af0186018391173e218ba8d3cca exit=0',
    ('ce1-sweetened', 'solve-exactify'): 'd9d2c00a2e9f666e4f99ebefea9a4bc2dbdd6a2bb5d9a079e126c6db58632d84 exit=0',
    ('ex1', 'analyze'): '56fcf8989ff65a0f48f4de2e54d0cc04f4314fab0852e782d683ff2dde29865a exit=0',
    ('random-equitable', 'analyze'): '4caf307070a5b118e1a3242f1237cdfe66fdc7b8975eefd159ee4de0d3e647c1 exit=0',
    ('x3c-graphical-n1', 'analyze'): '131c08dbba56264ff0c64e24d1471f16c4a83d2222aa516e1ff60fe2276f13ef exit=0',
}

# solve only, recorded the same way before the search they pin was simplified
SEARCH_GOLDEN = {
    'criterion-11': '3e641a5d1d0fd8bcfa324b582cc629289893e75b1cf0aa8b6fe03d784cfec420 exit=0',
    'x3c-2p-n1': 'cfd5afa927efd6b15a4fb11ba10dd749411704554ece58fb8e3d2383747d0298 exit=0',
}

# the cli benchmark's path, X3C graphical n = 2: ``solve`` on the generated
# document, then ``verify`` on the instance that ``solve`` emitted; recorded
# the same way before graphical expansion, the solver's promise, dominance
# and table checks were rebuilt to work on whole tables
PATH_GOLDEN = {
    'solve': '301df8d658d5195f985d313f79a437d40fe0a3b898dd934b91958615a46c8380 exit=0',
    'verify': '7763e11533b67afcbd4df6f14ec323e323d3bc7b8dada771b022e8bab0fba2a5 exit=0',
}
# solve_exact on EXACTIFY_COUNT instances drawn from random.Random(EXACTIFY_SEED);
# recorded the same way before exactify's promise builder was rewritten
EXACTIFY_GOLDEN = 'ee42ac473f9afb4b63881b20d4977495f6c49a93ccf2cce6ca327fbaee0c464d'
EXACTIFY_SEED, EXACTIFY_COUNT = 1_500, 200
# the key-layout calls on LAYOUT_COUNT games drawn from random.Random(LAYOUT_SEED);
# recorded the same way before the key layout moved into one place per game kind
LAYOUT_GOLDEN = 'a9facbad2c2f11b78329de5ee993ef6a6d0ab43d6968381f8092963277b1e64c'
LAYOUT_SEED, LAYOUT_COUNT = 2_200, 200

PATH_GEN = ["gen", "x3c", "--n", "2", "--seed", "0", "--force", "yes", "--target", "graphical"]


def _ex1() -> InstanceDoc:
    game = Game.make(
        ["p1", "p2"],
        [["s1", "s2", "s3"], ["t1", "t2"]],
        [
            {(0, 0): 1, (0, 1): 1, (1, 0): 2, (1, 1): 0, (2, 0): 0, (2, 1): 1},
            {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1, (2, 0): 0, (2, 1): 0},
        ],
    )
    return InstanceDoc(game=game, region=RectRegion.make([[0, 2], [0]]))


def _ce1() -> InstanceDoc:
    game = Game.make(
        ["p1", "p2"],
        [["s1", "s2"], ["s1", "s2"]],
        [
            {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 0},
            {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 0},
        ],
    )
    return InstanceDoc(game=game, region=RectRegion.make([[0, 1], [0]]))


def _ce1_sweetened() -> InstanceDoc:
    # {s2} x {s2} is stable only after sweetening (s2, s2), so ``pne`` emits
    # its zero-cost promise standalone next to the document's own promise
    game = _ce1().game
    sweetener = PaymentPromise.make(game, [{(1, 1): 3}, {(1, 1): 3}])
    return InstanceDoc(game=game, region=RectRegion.make([[1], [1]]), promise=sweetener)


def _random_equitable() -> InstanceDoc:
    game, region = random_equitable_instance(random.Random(20_313))
    return InstanceDoc(game=game, region=region)


def _x3c(target: str) -> str:
    result = run(["gen", "x3c", "--n", "1", "--seed", "0", "--target", target])
    assert result.exit_code == 0
    return json.dumps(result.payload)


def _criterion_11() -> InstanceDoc:
    # the game of test_acceptance.test_criterion_11_runtime_sanity_bound
    rng = random.Random(20_110)
    sizes = (12, 3)
    utilities = []
    for _ in range(2):
        table = {}
        for profile in itertools.product(*(range(s) for s in sizes)):
            value = rng.randint(0, 4)
            if value:
                table[profile] = value
        utilities.append(table)
    game = Game.make(
        ["p1", "p2"], [[f"s{k}" for k in range(12)], ["a", "b", "c"]], utilities
    )
    return InstanceDoc(game=game, region=RectRegion.make([[0, 1, 2, 3], [0]]))


INSTANCES = {
    "ex1": lambda: serialize_instance(_ex1()),
    "ce1": lambda: serialize_instance(_ce1()),
    "ce1-sweetened": lambda: serialize_instance(_ce1_sweetened()),
    "random-equitable": lambda: serialize_instance(_random_equitable()),
    "x3c-graphical-n1": lambda: _x3c("graphical"),
}

SEARCH_INSTANCES = {
    "criterion-11": lambda: serialize_instance(_criterion_11()),
    "x3c-2p-n1": lambda: _x3c("2p"),
}


def _build(instance: str) -> str:
    return (INSTANCES.get(instance) or SEARCH_INSTANCES[instance])()


def _argv(instance: str, command: str, directory: Path) -> list[str]:
    path = directory / f"{instance}.json"
    if not path.exists():
        path.write_text(_build(instance), encoding="utf-8")
    return COMMANDS[command] + [str(path)]


def _digest(result) -> str:
    text = json.dumps(result.payload, indent=2)
    return f"{hashlib.sha256(text.encode('utf-8')).hexdigest()} exit={result.exit_code}"


def digest(instance: str, command: str, directory: Path) -> str:
    return _digest(run(_argv(instance, command, directory)))


def path_digests(directory: Path) -> dict[str, str]:
    """Digests of ``solve`` on the ``PATH_GEN`` document and of ``verify``
    on the instance it emits."""
    generated = directory / "path-gen.json"
    generated.write_text(json.dumps(run(PATH_GEN).payload), encoding="utf-8")
    solved = run(["solve", str(generated)])
    emitted = directory / "path-solved.json"
    emitted.write_text(json.dumps(solved.payload["instance"]), encoding="utf-8")
    return {"solve": _digest(solved), "verify": _digest(run(["verify", str(emitted)]))}


def exactify_digest() -> str:
    """sha256 over ``solve_exact`` on the seeded ``EXACTIFY_COUNT`` instances:
    one line per instance with its delta, mapping and sorted promise
    entries, or the message it was refused with."""
    rng = random.Random(EXACTIFY_SEED)
    h = hashlib.sha256()
    for k in range(EXACTIFY_COUNT):
        if k % 2:
            game, region = random_equitable_instance(rng)
        else:
            game = random_game(rng)
            region = random_region(rng, game)
        try:
            result = solve_exact(game, region)
        except ValueError as exc:
            line = f"refused: {exc}"
        else:
            entries = [sorted((k, str(v)) for k, v in t.items()) for t in result.promise.entries]
            mapping = result.mapping
            line = repr((str(result.delta), mapping.domains, mapping.targets, entries))
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def _entries(promise: PaymentPromise | None):
    if promise is None:
        return None
    return [sorted((key, str(value)) for key, value in table.items()) for table in promise.entries]


def layout_digest() -> str:
    """sha256 over the key-layout calls on the seeded ``LAYOUT_COUNT`` games:
    one line per game with the undominated region of the game under its
    sampled promise, both ``verify`` reports, ``is_pne`` and ``pne_promise``
    on that view, and ``min_budget_solve`` on normal-form games, each call's
    refusal message in place of its result."""
    rng = random.Random(LAYOUT_SEED)
    budget = ExtValue(2)
    h = hashlib.sha256()

    def outcome(call, *args):
        try:
            return call(*args)
        except ValueError as exc:
            return f"refused: {exc}"

    for k in range(LAYOUT_COUNT):
        if k % 2:
            game = random_graphical(rng, mixed_utility)
        else:
            game = random_game(rng, value=mixed_utility)
        promise = random_promise(rng, game)
        region = random_region(rng, game)
        view = ModifiedGameView(game, promise)
        parts = [undominated_region(view).sets]
        for mode in ("subset", "exact"):
            report = verify(game, promise, region, budget, mode)
            star = report.undominated_region.sets
            parts.append((report.holds, star, str(report.cost), report.violation))
        parts.append(outcome(is_pne, view, region))
        pne = outcome(pne_promise, view, region)
        parts.append(pne if isinstance(pne, str) else (pne[0], _entries(pne[1])))
        if game.kind == "normal":
            solved = outcome(min_budget_solve, game, region)
            if not isinstance(solved, str):
                mapping, entries = solved.mapping, _entries(solved.promise)
                solved = (str(solved.delta), mapping.domains, mapping.targets, entries)
            parts.append(solved)
        h.update(repr(parts).encode("utf-8") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden_output(tmp_path, instance, command):
    assert digest(instance, command, tmp_path) == GOLDEN[instance, command]


@pytest.mark.parametrize("instance", sorted(SEARCH_INSTANCES))
def test_golden_search_output(tmp_path, instance):
    assert digest(instance, "solve", tmp_path) == SEARCH_GOLDEN[instance]


def test_golden_path_output(tmp_path):
    assert path_digests(tmp_path) == PATH_GOLDEN


def test_golden_exactify_output():
    assert exactify_digest() == EXACTIFY_GOLDEN


def test_golden_layout_output():
    assert layout_digest() == LAYOUT_GOLDEN


ALL_CASES = sorted(GOLDEN) + [(instance, "solve") for instance in sorted(SEARCH_GOLDEN)]


@pytest.mark.parametrize("instance, command", ALL_CASES)
def test_main_writes_the_stdlib_rendering(tmp_path, monkeypatch, capsys, instance, command):
    argv = _argv(instance, command, tmp_path)
    result = run(argv)
    monkeypatch.setattr(sys, "argv", ["gimpl", *argv])
    with pytest.raises(SystemExit) as exit_info:
        main()
    assert capsys.readouterr().out == json.dumps(result.payload, indent=2) + "\n"
    assert exit_info.value.code == result.exit_code


@pytest.mark.parametrize("instance", sorted(INSTANCES) + sorted(SEARCH_INSTANCES))
def test_serialize_instance_matches_the_stdlib(instance):
    doc = parse_instance(_build(instance))
    expected = json.dumps(instance_to_dict(doc), indent=2) + "\n"
    assert serialize_instance(doc) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        for instance in sorted(INSTANCES):
            for command in sorted(COMMANDS):
                value = digest(instance, command, Path(scratch))
                sys.stdout.write(f"    ({instance!r}, {command!r}): {value!r},\n")
        for instance in sorted(SEARCH_INSTANCES):
            value = digest(instance, "solve", Path(scratch))
            sys.stdout.write(f"    {instance!r}: {value!r},\n")
        for command, value in path_digests(Path(scratch)).items():
            sys.stdout.write(f"    {command!r}: {value!r},\n")
    sys.stdout.write(f"EXACTIFY_GOLDEN = {exactify_digest()!r}\n")
    sys.stdout.write(f"LAYOUT_GOLDEN = {layout_digest()!r}\n")
