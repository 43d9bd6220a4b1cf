"""Minimum-budget implementation search and its companions.

The search enumerates, for every player, all ways of assigning each
undesired strategy to a desired strategy meant to dominate it, prices each
joint assignment by the worst-case payment over the desired region, and
keeps the cheapest. That price, ``delta``, is taken over the whole desired
region, while cost binds only on the undominated region, so ``delta`` is an
upper bound on the minimum cost and can exceed the verified cost of the
returned promise. A big-M rewrite then turns any implementation into an
exact one on region shapes that leave every desired strategy a private
off-region profile. The stability check ``is_pne`` decides whether the full
desired region prices at ``delta = 0``; a region can still be implementable
at zero cost without passing it.

Everything operates on normal-form games; expand graphical games first.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .checking import verify
from .model import (
    AnyGame,
    Game,
    GraphicalGame,
    ModifiedGameView,
    PaymentPromise,
    Profile,
    RectRegion,
    _embed,
)
from .values import INF, ZERO, ExtValue

# Below this many joint assignments the process-pool overhead outweighs the
# search itself; the serial and parallel paths return identical results.
_PARALLEL_THRESHOLD = 4096

# Default refusal threshold for the exhaustive search. Hard instances blow
# past any cap by design; failing fast beats dying on memory mid-enumeration.
MAX_ASSIGNMENTS = 10**6


@dataclass(frozen=True)
class DominatorMapping:
    """One chosen desired dominator per undesired strategy, per player.

    ``domains[i]`` lists player i's undesired strategies in ascending order
    and ``targets[i]`` the desired strategy assigned to each.
    """

    domains: tuple[tuple[int, ...], ...]
    targets: tuple[tuple[int, ...], ...]

    def mapping_for(self, player: int) -> dict[int, int]:
        return dict(zip(self.domains[player], self.targets[player]))

    def preimage(self, player: int, desired: int) -> tuple[int, ...]:
        return tuple(
            x for x, t in zip(self.domains[player], self.targets[player]) if t == desired
        )


@dataclass(frozen=True)
class SolveResult:
    delta: ExtValue
    promise: PaymentPromise
    mapping: DominatorMapping
    exactified: bool


@dataclass(frozen=True)
class PneReport:
    """Outcome of the promise-Nash-equilibrium check.

    On success ``assignments`` holds, for every outside strategy, the
    smallest desired strategy that is never worse against desired opponent
    play. On failure ``defector`` names the first outside strategy with no
    such counter.
    """

    holds: bool
    defector: tuple[int, int] | None
    assignments: tuple[tuple[int, int, int], ...] | None


def _require_normal(game: AnyGame) -> Game:
    if isinstance(game, GraphicalGame):
        raise ValueError("the solver works on normal-form games; expand the graphical game first")
    return game


# positions in the desired-profile list and the utility gap at each
_Gaps = tuple[list[int], list[Fraction]]


def _gaps(
    game: Game, player: int, pairs: Iterable[tuple[int, int]], desired_profiles: Sequence[Profile]
) -> dict[tuple[int, int], _Gaps]:
    """Utility gaps of ``player`` over the desired profiles.

    For each pair ``(x, t)`` the result holds the indices of the desired
    profiles ``o`` in which the player's own strategy is ``t`` and, at each,
    the gap ``u_i(x, o_-i) - u_i(o)``.
    """
    positions: dict[int, list[int]] = {}
    for idx, o in enumerate(desired_profiles):
        positions.setdefault(o[player], []).append(idx)
    utility = game.utilities[player].get
    result: dict[tuple[int, int], _Gaps] = {}
    for x, t in pairs:
        at = positions[t]
        values = []
        for idx in at:
            o = desired_profiles[idx]
            x_profile = _embed(o[:player] + o[player + 1 :], player, x)
            values.append((utility(x_profile, ZERO) - utility(o, ZERO)).fraction)
        result[x, t] = at, values
    return result


def _fold(vec: tuple[Fraction | None, ...], gaps: _Gaps) -> tuple[Fraction | None, ...]:
    """``vec`` raised pointwise to the gaps at their positions; None is below
    every gap and stands for "no assigned strategy maps here"."""
    new = list(vec)
    positions, values = gaps
    for idx, g in zip(positions, values):
        if new[idx] is None or new[idx] < g:
            new[idx] = g
    return tuple(new)


def compute_v(
    game: Game,
    player: int,
    assignment: Mapping[int, int],
    region: RectRegion,
) -> dict[Profile, ExtValue]:
    """Cheapest payments making the assigned dominators weakly best on the
    desired region.

    For each desired profile the payment lifts the dominator to the best
    utility any of its assigned undesired strategies gets there, clamped at
    zero; desired strategies with no assigned strategies cost nothing.
    Returns a total table over the desired region.
    """
    game = _require_normal(game)
    region.validate_for(game)
    desired_i = set(region.sets[player])
    for x, target in assignment.items():
        if x in desired_i:
            raise ValueError(f"strategy {x} of player {player} is desired, not in the domain")
        if target not in desired_i:
            raise ValueError(f"target {target} of player {player} is not desired")
    desired_profiles = list(region.profiles())
    vec: tuple[Fraction | None, ...] = (None,) * len(desired_profiles)
    for gaps in _gaps(game, player, assignment.items(), desired_profiles).values():
        vec = _fold(vec, gaps)
    return {
        o: ExtValue(v) if v is not None and v > 0 else ZERO
        for o, v in zip(desired_profiles, vec)
    }


def _candidate_space(game: Game, region: RectRegion) -> tuple[list[tuple[int, ...]], list[int]]:
    """Per-player assignment domains and the per-player candidate counts."""
    domains = [region.complement(game, i) for i in range(game.n_players)]
    radices = [
        len(region.sets[i]) ** len(domains[i]) for i in range(game.n_players)
    ]
    return domains, radices


def _digits(index: int, radices: Sequence[int]) -> list[int]:
    """Mixed-radix digits of ``index``, most significant first: the position
    of ``index`` in the enumeration order of ``itertools.product``."""
    digits = []
    for radix in reversed(radices):
        index, digit = divmod(index, radix)
        digits.append(digit)
    return digits[::-1]


def _payment_vectors(
    game: Game, region: RectRegion, domains: Sequence[tuple[int, ...]]
) -> tuple[list[Profile], list[list[tuple[Fraction | None, ...]]]]:
    """Per player, one worst-payment vector over the desired region for every
    candidate assignment, in assignment enumeration order.

    Vector entries are the unclamped best utility gaps (None when no
    assigned strategy maps there); clamping at zero happens when summing.
    """
    desired_profiles = list(region.profiles())
    per_player: list[list[tuple[Fraction | None, ...]]] = []
    for i in range(game.n_players):
        targets = region.sets[i]
        gaps = _gaps(game, i, itertools.product(domains[i], targets), desired_profiles)
        prefix: list[tuple[Fraction | None, ...]] = [(None,) * len(desired_profiles)]
        for x in domains[i]:
            choices = [gaps[x, t] for t in targets]
            prefix = [_fold(vec, choice) for vec in prefix for choice in choices]
        per_player.append(prefix)
    return desired_profiles, per_player


def _scan_assignments(
    game: Game, region: RectRegion, start: int, stop: int
) -> tuple[Fraction, int] | None:
    """Search one contiguous slice of the joint assignment space; return the
    cheapest worst-case payment and the first index achieving it."""
    domains, _ = _candidate_space(game, region)
    desired_profiles, vectors = _payment_vectors(game, region, domains)
    n = game.n_players
    n_profiles = len(desired_profiles)
    zero = Fraction(0)

    best: Fraction | None = None
    best_index = -1
    joint = itertools.islice(itertools.product(*vectors), start, stop)
    for g, chosen in enumerate(joint, start):
        worst = zero
        abandoned = False
        for idx in range(n_profiles):
            total = zero
            for i in range(n):
                v = chosen[i][idx]
                if v is not None and v > zero:
                    total += v
            if total > worst:
                worst = total
                if best is not None and worst >= best:
                    abandoned = True
                    break
        if not abandoned and (best is None or worst < best):
            best = worst
            best_index = g
    if best is None:
        return None
    return best, best_index


def _scan_chunk(args: tuple[Game, RectRegion, int, int]) -> tuple[Fraction, int] | None:
    return _scan_assignments(*args)


def _off_region(
    view: ModifiedGameView, region: RectRegion, player: int
) -> Iterator[tuple[int, ...]]:
    """Opponent parts of ``player`` in which some opponent plays outside the
    region, in opponent-profile order."""
    desired = [set(region.sets[j]) for j in view.opponents(player)]
    for opp in view.opponent_profiles(player):
        if not all(s in d for s, d in zip(opp, desired)):
            yield opp


def _infinite_off_region(
    view: ModifiedGameView, region: RectRegion, player: int
) -> dict[tuple[int, ...], ExtValue]:
    """Infinite payments on the player's desired rows against every
    off-region opponent part."""
    return {
        view.key_of(player, p, opp): INF
        for opp in _off_region(view, region, player)
        for p in region.sets[player]
    }


def min_budget_solve(
    game: Game,
    region: RectRegion,
    jobs: int = 1,
    max_assignments: int | None = MAX_ASSIGNMENTS,
) -> SolveResult:
    """Smallest worst-case payment over the desired region that makes every
    undesired strategy dominated, with the promise achieving it.

    Enumerates joint dominator assignments in lexicographic order (players
    ascending, domain entries by undesired index, values by desired index)
    and keeps the first strict improvement, so results are deterministic.
    The returned promise also pays infinity on desired rows against
    undesired opponent profiles, which is what forces the dominations.

    The search is exponential in the number of undesired strategies; spaces
    above ``max_assignments`` are refused up front (pass ``None`` to force
    the enumeration regardless).
    """
    game = _require_normal(game)
    region.validate_for(game)

    domains, radices = _candidate_space(game, region)
    total = 1
    for r in radices:
        total *= r
    if max_assignments is not None and total > max_assignments:
        raise ValueError(
            f"assignment space has {total} elements, above the {max_assignments} cap; "
            "this exhaustive search is meant for desk-scale instances"
        )

    if jobs > 1 and total >= _PARALLEL_THRESHOLD:
        chunk = -(-total // jobs)
        ranges = [
            (game, region, lo, min(lo + chunk, total)) for lo in range(0, total, chunk)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = [r for r in pool.map(_scan_chunk, ranges) if r is not None]
        best, best_index = min(results)
    else:
        found = _scan_assignments(game, region, 0, total)
        assert found is not None  # the assignment space is never empty
        best, best_index = found

    mapping = DominatorMapping(
        domains=tuple(domains),
        targets=tuple(
            tuple(
                region.sets[i][d]
                for d in _digits(digit, [len(region.sets[i])] * len(domains[i]))
            )
            for i, digit in enumerate(_digits(best_index, radices))
        ),
    )

    view = ModifiedGameView(game)
    tables: list[dict[Profile, ExtValue]] = []
    for i in range(game.n_players):
        table = {
            profile: value
            for profile, value in compute_v(game, i, mapping.mapping_for(i), region).items()
            if value != ZERO
        }
        table.update(_infinite_off_region(view, region, i))
        tables.append(table)

    promise = PaymentPromise.make(game, tables)
    return SolveResult(
        delta=ExtValue(best), promise=promise, mapping=mapping, exactified=False
    )


def is_equitable(game: AnyGame, region: RectRegion) -> tuple[bool, tuple[int, ...]]:
    """Whether every player's desired set fits inside the undesired part of
    the opponents' profile space; margins are slack counts per player."""
    region.validate_for(game)
    margins = []
    for i in range(game.n_players):
        opp_total = 1
        opp_desired = 1
        for j in range(game.n_players):
            if j == i:
                continue
            opp_total *= game.sizes[j]
            opp_desired *= len(region.sets[j])
        margins.append((opp_total - opp_desired) - len(region.sets[i]))
    return all(m >= 0 for m in margins), tuple(margins)


def exactify(game: Game, region: RectRegion, promise: PaymentPromise) -> PaymentPromise:
    """Big-M rewrite giving each desired strategy a private off-region profile
    where it is strictly best, making the implementation exact without
    raising the worst-case payment over the desired region.

    Requires an equitable region shape and a promise that implements the
    region with finite payments on it.
    """
    game = _require_normal(game)
    region.validate_for(game)
    equitable, margins = is_equitable(game, region)
    if not equitable:
        raise ValueError(f"not equitable: per-player margins {margins}")
    if promise.kind != "normal":
        raise ValueError("exactification needs a normal-form promise")

    delta = ZERO
    for profile in region.profiles():
        total: ExtValue = ZERO
        for i in range(game.n_players):
            value = promise.value(i, profile)
            if not value.is_finite:
                raise ValueError(f"promise is infinite on the desired region at {profile}")
            total = total + value
        if delta < total:
            delta = total

    if not verify(game, promise, region, INF, "subset").holds:
        raise ValueError("promise does not implement the desired region")

    big_m = game.max_utility() + delta + ExtValue(1)
    view = ModifiedGameView(game)
    tables: list[dict[Profile, ExtValue]] = []
    for i in range(game.n_players):
        table: dict[Profile, ExtValue] = {}
        for o in region.profiles():
            value = promise.value(i, o)
            if value != ZERO:
                table[o] = value
        off_region = list(_off_region(view, region, i))
        # equitability leaves at least one private off-region part per desired strategy
        for o_i, private in zip(region.sets[i], off_region):
            for opp in off_region:
                profile = view.key_of(i, o_i, opp)
                base = game.utility(i, profile)
                bonus = big_m + 1 - base if opp == private else big_m - base
                table[profile] = bonus
        tables.append(table)
    return PaymentPromise.make(game, tables)


def solve_exact(
    game: Game,
    region: RectRegion,
    jobs: int = 1,
    max_assignments: int | None = MAX_ASSIGNMENTS,
) -> SolveResult:
    """Minimum-budget search followed by the exactifying rewrite."""
    game = _require_normal(game)
    equitable, margins = is_equitable(game, region)
    if not equitable:
        raise ValueError(f"not equitable: per-player margins {margins}")
    partial = min_budget_solve(game, region, jobs=jobs, max_assignments=max_assignments)
    exact_promise = exactify(game, region, partial.promise)
    return SolveResult(
        delta=partial.delta,
        promise=exact_promise,
        mapping=partial.mapping,
        exactified=True,
    )


def _as_view(game: "AnyGame | ModifiedGameView") -> ModifiedGameView:
    if isinstance(game, ModifiedGameView):
        return game
    return ModifiedGameView(game)


def is_pne(game: "AnyGame | ModifiedGameView", region: RectRegion) -> PneReport:
    """Literal check that every outside strategy has a desired counter that
    is never worse against desired opponent play.

    For graphical views the opponent play ranges over the region restricted
    to the neighborhood.
    """
    view = _as_view(game)
    region.validate_for(view.game)
    assignments: list[tuple[int, int, int]] = []
    for i in range(view.n_players):
        desired = set(region.sets[i])
        outside = [x for x in range(view.sizes[i]) if x not in desired]
        for x in outside:
            counter = None
            for p in region.sets[i]:
                if all(
                    view.payoff(i, x, opp) <= view.payoff(i, p, opp)
                    for opp in view.opponent_profiles(i, region)
                ):
                    counter = p
                    break
            if counter is None:
                return PneReport(holds=False, defector=(i, x), assignments=None)
            assignments.append((i, x, counter))
    return PneReport(holds=True, defector=None, assignments=tuple(assignments))


def zero_cost_promise(
    game: "AnyGame | ModifiedGameView", region: RectRegion
) -> PaymentPromise:
    """Promise implementing a stable desired region for free: pay infinity on
    desired rows whenever some opponent leaves the region, nothing else.

    Requires the region to pass the stability check. On regions that leave
    every player some undesired opponent profile, the infinite entries make
    each outside strategy strictly dominated while never touching an
    undominated profile, so the promise verifies at budget 0.
    """
    view = _as_view(game)
    region.validate_for(view.game)
    report = is_pne(view, region)
    if not report.holds:
        assert report.defector is not None
        i, x = report.defector
        raise ValueError(
            f"not a promise-Nash equilibrium: strategy {x} of player {i} has no desired counter"
        )
    tables = [_infinite_off_region(view, region, i) for i in range(view.n_players)]
    return PaymentPromise.make(view.game, tables)
