"""Command-line interface over gipf-1 instance documents.

Every subcommand prints a single JSON object to stdout (diagnostics go to
stderr) and exits 0 for yes, 2 for no, 1 for errors. Values are printed as
exact rationals, never floats. ``gen`` emits a bare instance document so
its output can be piped straight back into the other subcommands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import reductions
from .checking import VerifyReport, verify
from .domination import undominated_region
from .instancefmt import InstanceDoc, instance_to_dict, parse_instance
from .model import GraphicalGame, ModifiedGameView, expand_graphical
from .oracle import oracle_min_budget
from .solver import (
    DominatorMapping,
    is_pne,
    min_budget_solve,
    solve_exact,
    zero_cost_promise,
)
from .values import INF, ExtValue

EXIT_YES, EXIT_ERROR, EXIT_NO = 0, 1, 2


@dataclass(frozen=True)
class CommandResult:
    status: str  # "yes" | "no" | "error"
    payload: dict[str, Any]

    @property
    def exit_code(self) -> int:
        return {"yes": EXIT_YES, "no": EXIT_NO, "error": EXIT_ERROR}[self.status]


def _load(path: str) -> InstanceDoc:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _region_payload(doc_game, region) -> dict[str, Any]:
    return {
        "sets": [list(members) for members in region.sets],
        "names": [
            [doc_game.strategies[i][s] for s in members]
            for i, members in enumerate(region.sets)
        ],
    }


def _report_payload(game, report: VerifyReport) -> dict[str, Any]:
    return {
        "mode": report.mode,
        "holds": report.holds,
        "cost": report.cost.to_json(),
        "budget": report.budget.to_json(),
        "undominated": _region_payload(game, report.undominated_region),
        "violation": list(report.violation) if report.violation else None,
    }


def _mapping_payload(mapping: DominatorMapping) -> list[list[list[int]]]:
    return [
        [[x, t] for x, t in zip(domain, targets)]
        for domain, targets in zip(mapping.domains, mapping.targets)
    ]


def _cmd_analyze(args) -> CommandResult:
    doc = _load(args.instance)
    view = ModifiedGameView(doc.game, doc.promise)
    region = undominated_region(view)
    return CommandResult(
        "yes",
        {
            "status": "yes",
            "kind": "graphical" if isinstance(doc.game, GraphicalGame) else "normal",
            "promise_applied": doc.promise is not None,
            "undominated": _region_payload(doc.game, region),
        },
    )


def _cmd_verify(args) -> CommandResult:
    doc = _load(args.instance)
    if doc.region is None:
        raise ValueError("verify needs a region in the instance document")
    promise = doc.promise
    budget = doc.budget if doc.budget is not None else INF
    mode = "exact" if args.exact else "subset"
    report = verify(doc.game, promise, doc.region, budget, mode)
    payload = {"status": "yes" if report.holds else "no"}
    payload.update(_report_payload(doc.game, report))
    return CommandResult(payload["status"], payload)


def _cmd_solve(args) -> CommandResult:
    doc = _load(args.instance)
    if doc.region is None:
        raise ValueError("solve needs a region in the instance document")
    game = doc.game
    if isinstance(game, GraphicalGame):
        game = expand_graphical(game)
    if args.exactify:
        result = solve_exact(game, doc.region)
    else:
        result = min_budget_solve(game, doc.region)
    solved = InstanceDoc(
        game=game, region=doc.region, budget=result.delta, promise=result.promise
    )
    return CommandResult(
        "yes",
        {
            "status": "yes",
            "delta": result.delta.to_json(),
            "exactified": result.exactified,
            "mapping": _mapping_payload(result.mapping),
            "instance": instance_to_dict(solved),
        },
    )


def _cmd_pne(args) -> CommandResult:
    doc = _load(args.instance)
    if doc.region is None:
        raise ValueError("pne needs a region in the instance document")
    view = ModifiedGameView(doc.game, doc.promise)
    report = is_pne(view, doc.region)
    if not report.holds:
        assert report.defector is not None
        return CommandResult(
            "no",
            {
                "status": "no",
                "pne": False,
                "defector": list(report.defector),
            },
        )
    payload: dict[str, Any] = {
        "status": "yes",
        "pne": True,
        "assignments": [list(entry) for entry in report.assignments or ()],
    }
    promise = zero_cost_promise(view, doc.region)
    if doc.promise is None:
        emitted = InstanceDoc(
            game=doc.game, region=doc.region, budget=ExtValue(0), promise=promise
        )
        payload["instance"] = instance_to_dict(emitted)
    else:
        payload["promise"] = [
            {"player": i, "profile": list(key), "value": value.to_json()}
            for i in range(doc.game.n_players)
            for key, value in sorted(promise.entries[i].items())
        ]
    return CommandResult("yes", payload)


def _cmd_oracle(args) -> CommandResult:
    doc = _load(args.instance)
    if doc.region is None:
        raise ValueError("oracle needs a region in the instance document")
    game = doc.game
    if isinstance(game, GraphicalGame):
        game = expand_graphical(game)
    result = oracle_min_budget(game, doc.region)
    landscape = [
        {"mapping": _mapping_payload(mapping), "delta": value.to_json()}
        for mapping, value in result.per_mapping_costs.items()
    ]
    return CommandResult(
        "yes",
        {
            "status": "yes",
            "delta": result.delta.to_json(),
            "optimal": [_mapping_payload(m) for m in result.all_optimal_mappings],
            "landscape": landscape,
        },
    )


def _pick_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("GIMPL_SEED")
    if env is not None:
        return int(env)
    return 0


def _cmd_gen_x3c(args) -> CommandResult:
    inst = reductions.gen_x3c(args.n, _pick_seed(args), args.force)
    if args.target == "2p":
        game, region, budget = reductions.x3c_to_two_player(inst)
        doc = InstanceDoc(game=game, region=region, budget=budget)
    else:
        gg, region, budget = reductions.x3c_to_graphical(inst)
        doc = InstanceDoc(game=gg, region=region, budget=budget)
    return CommandResult("yes", instance_to_dict(doc))


def _cmd_gen_coloring(args) -> CommandResult:
    graph = reductions.parse_edge_list(Path(args.edges).read_text(encoding="utf-8"))
    game, region, budget = reductions.coloring_to_exact(graph)
    doc = InstanceDoc(game=game, region=region, budget=budget)
    return CommandResult("yes", instance_to_dict(doc))


def _cmd_decode(args) -> CommandResult:
    doc = _load(args.instance)
    if doc.promise is None:
        raise ValueError("decode needs a promise in the instance document")
    if args.kind == "x3c2p":
        cover = reductions.decode_cover_2p(doc.game, doc.promise)
        inst = reductions.x3c_instance_from_game(doc.game)
        payload = {
            "status": "yes",
            "kind": "x3c2p",
            "cover": list(cover),
            "triples": [list(inst.triples[j]) for j in cover],
        }
    elif args.kind == "x3cgraph":
        if not isinstance(doc.game, GraphicalGame):
            raise ValueError("x3cgraph decoding needs a graphical instance")
        budget = doc.budget if doc.budget is not None else ExtValue("1/2")
        cover = reductions.decode_cover_graphical(doc.game, doc.promise, budget)
        payload = {"status": "yes", "kind": "x3cgraph", "cover": list(cover)}
    else:
        colored = reductions.decode_coloring(doc.game, doc.promise)
        assert colored.coloring is not None
        payload = {
            "status": "yes",
            "kind": "coloring",
            "coloring": {
                name: colored.coloring[v] for v, name in enumerate(colored.vertices)
            },
        }
    return CommandResult("yes", payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gimpl",
        description="Compute, verify, and exactify payment promises that "
        "implement desired strategy sets in finite games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report the undominated strategy sets")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("verify", help="check a promise against region and budget")
    p.add_argument("instance")
    p.add_argument("--exact", action="store_true", help="require the region exactly")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="minimum-budget implementation search")
    p.add_argument("instance")
    p.add_argument("--exactify", action="store_true", help="rewrite into an exact implementation")
    p.add_argument("--jobs", type=int, default=None, help="accepted and ignored; the search is serial")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("pne", help="promise-Nash-equilibrium check for the region")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_pne)

    p = sub.add_parser("oracle", help="exhaustive cross-check of the solver")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("gen", help="emit hardness-construction instances")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    p = gen_sub.add_parser("x3c", help="exact-cover-by-3-sets constructions")
    p.add_argument("--n", type=int, required=True, help="cover size parameter")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: $GIMPL_SEED or 0)")
    p.add_argument("--force", choices=("yes", "no", "any"), default="any")
    p.add_argument("--target", choices=("2p", "graphical"), default="2p")
    p.set_defaults(func=_cmd_gen_x3c)
    p = gen_sub.add_parser("coloring", help="three-coloring construction")
    p.add_argument("--edges", required=True, help="edge-list file")
    p.set_defaults(func=_cmd_gen_coloring)

    p = sub.add_parser("decode", help="recover a combinatorial solution from a promise")
    p.add_argument("instance")
    p.add_argument("--kind", choices=("x3c2p", "x3cgraph", "coloring"), required=True)
    p.set_defaults(func=_cmd_decode)

    return parser


def run(argv: list[str]) -> CommandResult:
    """Dispatch one command line; never raises on domain errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help and friends
            raise
        return CommandResult("error", {"status": "error", "error": "invalid command line"})
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return CommandResult("error", {"status": "error", "error": str(exc)})


def main() -> None:
    result = run(sys.argv[1:])
    try:
        json.dump(result.payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (head, grep -m1, ...) closed the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(result.exit_code)
    if result.status == "error":
        print(f"gimpl: {result.payload.get('error')}", file=sys.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
