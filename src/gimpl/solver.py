"""Minimum-budget implementation search and its companions.

The search assigns, for every player, each undesired strategy to a desired
strategy meant to dominate it, prices each joint assignment by the
worst-case payment over the desired region, and keeps the cheapest. It is
an exact branch and bound over the assignment digits in integer arithmetic
(utility gaps scaled by the least common multiple of their denominators):
a branch is dropped by one test, as soon as the price of its fixed digits
or the cheapest option of one of its open digits reaches the best price
found, and only strict improvements count, so it returns the same
assignment as a full scan in enumeration order. It is bounded by its work,
not by the size of its space: past ``MAX_SEARCH_WORK`` entry reads it stops
with an error that brackets the least price. That price, ``delta``, is
taken over the whole desired region, while cost binds only on the
undominated region, so when the returned promise verifies, ``delta`` is an
upper bound on the minimum cost and can exceed the promise's verified cost.
The exception is a region that leaves exactly one player undesired
strategies (see ``min_budget_solve``): the promise can then fail ``verify``
with cost infinity, and the least cost can be an infimum that no promise
attains, so no promise need cost as little as ``delta``. A big-M rewrite then
turns any implementation into an exact one on region shapes that leave
every desired strategy a private off-region profile. The stability check
``is_pne`` decides whether the full desired region prices at
``delta = 0``; a region can still be implementable at zero cost without
passing it.

The search, ``compute_v``, ``exactify`` and ``solve_exact`` take
normal-form games only; expand graphical games first. ``is_equitable``,
``is_pne`` and ``pne_promise`` also take graphical games, and the last two a
``ModifiedGameView`` of either kind, as ``gimpl pne`` passes them: they read
each player's payoffs against its neighbours only. The search,
``compute_v``, ``exactify`` and ``pne_promise`` refuse desired
regions above ``MAX_PROFILES`` (65,536) profiles before they list any, the
same cap ``verify`` and ``cost`` apply to the regions they sum payments
over; the search and ``compute_v`` refuse option vectors above
``MAX_PAYOFFS`` (2^22) entries in all before they build any. ``is_pne``
refuses a player with undesired strategies whose opponent profiles in the
region pass ``MAX_PROFILES``, and a check of more than ``MAX_PAYOFFS``
payoff reads, before it compares any payoff.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .checking import _max_payment_over, verify
from .model import (
    MAX_PAYOFFS,
    MAX_PROFILES,
    AnyGame,
    Game,
    GraphicalGame,
    ModifiedGameView,
    PaymentPromise,
    Profile,
    RectRegion,
    _check_player_index,
)
from .values import INF, ZERO, ExtValue

# Work budget of the assignment search, in payment-vector entries its pruning
# tests may read (see ``_scan_assignments``). Completed searches of the
# benchmark corpora and of dense two-player games with 16-32 strategies per
# player read fewer than 2^26.
MAX_SEARCH_WORK = 2**27


@dataclass(frozen=True)
class DominatorMapping:
    """One chosen desired dominator per undesired strategy, per player.

    ``domains[i]`` lists player i's undesired strategies in ascending order
    and ``targets[i]`` the desired strategy assigned to each.
    """

    domains: tuple[tuple[int, ...], ...]
    targets: tuple[tuple[int, ...], ...]

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
    zero; desired strategies with no assigned strategies cost nothing. The
    lift is the pointwise max of the chosen options' ``_payment_vectors``,
    built with the assigned strategies as the player's only domain. Returns
    a total table over the desired region. The player must be an int
    naming a player, assigned strategies must be undesired and targets
    desired; desired regions above ``MAX_PROFILES`` profiles, and option
    vectors above ``MAX_PAYOFFS`` entries in all, are refused before any
    profile is listed.
    ``bench/tracing.py`` wraps it by name: remove it only with ROADMAP's
    program-side run statistics item.
    """
    game = _require_normal(game)
    _check_player_index(game, player)
    region.validate_for(game)
    _refuse_large_region(region)
    targets = region.sets[player]
    undesired = region.complement(game, player)
    for x, target in assignment.items():
        if x not in undesired:
            raise ValueError(f"strategy {x} of player {player} is not an undesired strategy")
        if target not in targets:
            raise ValueError(f"target {target} of player {player} is not desired")
    domain = tuple(sorted(assignment))
    domains = [domain if i == player else () for i in range(game.n_players)]
    _refuse_large_vectors(region, domains)
    desired_profiles, per_player, scale, _ = _payment_vectors(game, region, domains)
    options = per_player[player]
    lift = [0] * len(desired_profiles)
    for k, x in enumerate(domain):
        lift = _pointwise_max(lift, options[k * len(targets) + targets.index(assignment[x])])
    return {o: ExtValue(Fraction(v, scale)) if v else ZERO for o, v in zip(desired_profiles, lift)}


def _payment_vectors(
    game: Game, region: RectRegion, domains: Sequence[tuple[int, ...]]
) -> tuple[list[Profile], list[list[list[int]]], int, list[list[list[int]]]]:
    """Per player, one payment vector over the desired profiles for every
    (undesired, target) option, in ``itertools.product(domain, targets)``
    order, the common scale of all vectors and, per player and target in
    region order, the block of desired-profile indices where the player
    plays that target.

    This is the one place a utility gap u_i(x, o_-i) - u_i(o) is computed.
    An option's vector holds, at the profiles ``o`` of the target's block,
    that gap of the undesired strategy ``x`` clamped at zero, and zero
    elsewhere. Entries are ints: the gap times the scale, which is the
    least common multiple of the positive gaps' denominators.
    """
    desired_profiles = list(region.profiles())
    blocks = []
    positive = []  # per player and option: (index, gap) where the gap is positive
    for i, targets in enumerate(region.sets):
        where: dict[int, list[int]] = {t: [] for t in targets}
        for idx, o in enumerate(desired_profiles):
            where[o[i]].append(idx)
        blocks.append([where[t] for t in targets])
        utility = game.utilities[i].get
        options = []
        for x, block in itertools.product(domains[i], blocks[i]):
            gaps = []
            for idx in block:
                o = desired_profiles[idx]
                gap = (utility(o[:i] + (x,) + o[i + 1 :], ZERO) - utility(o, ZERO)).fraction
                if gap > 0:
                    gaps.append((idx, gap))
            options.append(gaps)
        positive.append(options)
    scale = math.lcm(
        *(gap.denominator for options in positive for gaps in options for _, gap in gaps)
    )
    zero = [0] * len(desired_profiles)
    per_player = []
    for options in positive:
        vectors = []
        for gaps in options:
            vec = zero.copy()
            for idx, gap in gaps:
                vec[idx] = gap.numerator * (scale // gap.denominator)
            vectors.append(vec)
        per_player.append(vectors)
    return desired_profiles, per_player, scale, blocks


def _pointwise_max(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x if x > y else y for x, y in zip(a, b)]


def _scan_assignments(
    game: Game, region: RectRegion, start: int, stop: int
) -> tuple[Fraction, list[list[int]], list[dict[Profile, ExtValue]]]:
    """Branch and bound over the joint assignment space, which ``[start,
    stop)`` must cover whole.

    Returns the cheapest worst-case payment over the desired region, the
    first assignment in enumeration order that achieves it (per player, the
    position in the desired set of each undesired strategy's target) and
    each player's nonzero payments under that assignment.

    An assignment is a string of digits, one per undesired strategy, read in
    enumeration order. A player's payment vector is the pointwise max of its
    chosen option vectors, and an assignment's price is the largest entry of
    the players' sum; all entries are nonnegative. The search runs depth
    first and prunes with one test: a branch is dropped once the price of
    the digits fixed so far, or the cheapest option of some open digit laid
    on what that digit adds to, reaches the best price found. An open digit
    of a later player adds to the fixed digits' sum; one of the current
    player adds to the finished players' payments only, since a player's own
    options combine by pointwise max. A leaf that passes the test is a
    strict improvement, so the first optimum in enumeration order is the one
    returned. Players with one desired strategy have nothing to choose and
    enter as a constant.

    Each option tried at depth ``d`` counts ``(n_digits - d)`` times the
    number of desired profiles toward ``MAX_SEARCH_WORK``, an upper bound on
    the entries its pruning test reads. A search that passes the budget
    raises ``ValueError`` naming the nodes tried and the bracket [L, U]: U
    is the best price found, and L is the root bound, the largest of
    ``base`` and of each digit's cheapest option laid on ``base``, which no
    assignment undercuts. ``bench/tracing.py`` wraps this function by name
    and reads ``start`` and ``stop`` positionally: change that only with
    ROADMAP's program-side run statistics item.
    """
    domains = [region.complement(game, i) for i in range(game.n_players)]
    desired_profiles, per_player, scale, blocks = _payment_vectors(game, region, domains)
    n = game.n_players
    zero = [0] * len(desired_profiles)
    slots = []  # per player and undesired strategy: its option vectors by target
    for i, options in enumerate(per_player):
        width = len(region.sets[i])
        slots.append([options[k : k + width] for k in range(0, len(options), width)])
    picks = [[0] * len(domains[i]) for i in range(n)]

    def payments(i: int) -> list[int]:
        """Player ``i``'s payment vector under ``picks``."""
        vec = zero
        for choices, k in zip(slots[i], picks[i]):
            vec = _pointwise_max(vec, choices[k])
        return vec

    # the first assignment (every digit 0) seeds the best price
    best = max(map(sum, zip(*map(payments, range(n)))))
    base = zero  # the payments of the players with nothing to choose
    digits: list[tuple[int, int]] = []  # (player, slot) in enumeration order
    later: list[int] = []  # per digit, the first digit of a later player
    for i in range(n):
        if len(region.sets[i]) == 1:
            base = [a + b for a, b in zip(base, payments(i))]
        else:
            digits += [(i, slot) for slot in range(len(slots[i]))]
            later += [len(digits)] * len(slots[i])

    def cheapest(d: int, under: Sequence[int]) -> int:
        """The least price that fixing digit ``d`` on top of ``under`` forces."""
        i, slot = digits[d]
        return min(
            max([under[idx] + option[idx] for idx in block])
            for option, block in zip(slots[i][slot], blocks[i])
        )

    def stopped(nodes: int) -> ValueError:
        """The refusal of a search that passed its work budget."""
        lower = max([max(base)] + [cheapest(e, base) for e in range(n_digits)])
        return ValueError(
            f"assignment search passed its work budget of {MAX_SEARCH_WORK} entry reads "
            f"after {nodes} nodes; the least price lies in "
            f"[{Fraction(lower, scale)}, {Fraction(best, scale)}]"
        )

    n_digits = len(digits)
    entries = len(desired_profiles)
    work = nodes = 0
    best_chosen = [0] * n_digits
    tried = [0] * n_digits  # per depth: the options tried, the last one chosen
    dones = [base] * n_digits  # per depth: the payments of finished players
    curs = [zero] * n_digits  # per depth: the current player's vector so far
    d = 0 if digits else -1
    while d >= 0:
        i, slot = digits[d]
        choices = slots[i][slot]
        k = tried[d]
        if k == len(choices):
            d -= 1
            continue
        tried[d] = k + 1
        nodes += 1
        work += (n_digits - d) * entries  # at most what the test below reads
        if work > MAX_SEARCH_WORK:
            raise stopped(nodes)
        cur = _pointwise_max(curs[d], choices[k])
        total = [a + c for a, c in zip(dones[d], cur)]
        if max(total) >= best or any(
            cheapest(e, dones[d] if e < later[d] else total) >= best
            for e in range(d + 1, n_digits)
        ):
            continue
        if d + 1 == n_digits:
            best, best_chosen = max(total), [t - 1 for t in tried]
            continue
        d += 1
        tried[d] = 0
        if digits[d][0] == i:
            dones[d], curs[d] = dones[d - 1], cur
        else:
            dones[d], curs[d] = total, zero

    for (i, slot), k in zip(digits, best_chosen):
        picks[i][slot] = k
    tables = [
        {o: ExtValue(Fraction(v, scale)) for o, v in zip(desired_profiles, payments(i)) if v}
        for i in range(n)
    ]
    return Fraction(best, scale), picks, tables


def _refuse_large_region(region: RectRegion) -> None:
    """Refuse a desired region above ``MAX_PROFILES`` profiles, the cap
    ``verify`` sums payments under, before any profile is listed."""
    count = math.prod(map(len, region.sets))
    if count > MAX_PROFILES:
        raise ValueError(f"desired region has {count} profiles, above the {MAX_PROFILES} cap")


def _refuse_large_vectors(region: RectRegion, domains: Sequence[tuple[int, ...]]) -> None:
    """Refuse option vectors above ``MAX_PAYOFFS`` entries in all, one per
    desired profile for each (undesired, target) option, before any is
    built."""
    options = sum(len(domain) * len(targets) for domain, targets in zip(domains, region.sets))
    count = options * math.prod(map(len, region.sets))
    if count > MAX_PAYOFFS:
        raise ValueError(f"payment vectors need {count} entries, above the {MAX_PAYOFFS} cap")


def _off_region_rows(
    game: AnyGame, region: RectRegion, player: int
) -> list[list[tuple[int, ...]]]:
    """Per desired strategy of ``player``, in region order, its keys against
    the opponent parts that leave the region, in ``game.keys`` order.

    A player with more than ``MAX_PROFILES`` opponent parts is refused
    before any key is listed."""
    count = math.prod(game.sizes[j] for j in game.opponents(player))
    if count > MAX_PROFILES:
        raise ValueError(
            f"player {player} has {count} opponent profiles, above the {MAX_PROFILES} "
            "cap on off-region payments"
        )
    rows = []
    for p in region.sets[player]:
        inside = set(game.keys(player, p, region))
        rows.append(list(itertools.filterfalse(inside.__contains__, game.keys(player, p))))
    return rows


def min_budget_solve(game: Game, region: RectRegion) -> SolveResult:
    """Smallest worst-case payment over the desired region that makes every
    undesired strategy dominated, with the promise achieving it.

    Searches joint dominator assignments depth first in lexicographic order
    (players ascending, domain entries by undesired index, values by desired
    index) with integer branch and bound, and keeps the first strict
    improvement: the result is the first optimal assignment in that order,
    so it is deterministic. The returned promise also pays infinity on
    desired rows against undesired opponent profiles, which makes each
    domination strict only if such a profile exists. When exactly one player
    has undesired strategies none does, and the promise can fail ``verify``:
    two players (x, y and u, v), no utilities and region {x} x {u, v} give
    delta 0, yet y is undominated and ``verify`` reports cost infinity.

    The search is exponential in the number of undesired strategies in the
    worst case, and bounded by its work, not by the size of its space.
    Desired regions above ``MAX_PROFILES`` profiles, players with more than
    ``MAX_PROFILES`` opponent profiles and option vectors above
    ``MAX_PAYOFFS`` entries in all are refused before any is built, and a
    search that passes ``MAX_SEARCH_WORK`` stops with a ``ValueError`` that
    brackets the least price (see ``_scan_assignments``).
    """
    game = _require_normal(game)
    region.validate_for(game)
    _refuse_large_region(region)
    rows = [_off_region_rows(game, region, i) for i in range(game.n_players)]
    domains = [region.complement(game, i) for i in range(game.n_players)]
    _refuse_large_vectors(region, domains)

    # bench/tracing.py reads the space size from (0, total); keep it until program-side stats
    total = math.prod(len(region.sets[i]) ** len(domains[i]) for i in range(game.n_players))
    best, picks, tables = _scan_assignments(game, region, 0, total)
    mapping = DominatorMapping(
        domains=tuple(domains),
        targets=tuple(
            tuple(region.sets[i][k] for k in picks[i]) for i in range(game.n_players)
        ),
    )
    for table, player_rows in zip(tables, rows):
        table.update(dict.fromkeys(itertools.chain.from_iterable(player_rows), INF))
    # canonical by construction: nonzero values on in-range keys
    promise = PaymentPromise(game.kind, tuple(tables))
    return SolveResult(
        delta=ExtValue(best), promise=promise, mapping=mapping, exactified=False
    )


def is_equitable(game: AnyGame, region: RectRegion) -> tuple[bool, tuple[int, ...]]:
    """Whether every player's desired set fits inside the undesired part of
    its key opponents' profile space (``game.opponents``, the neighbours in a
    graphical game); margins are slack counts per player."""
    region.validate_for(game)
    margins = []
    for i in range(game.n_players):
        others = game.opponents(i)
        opp_total = math.prod(game.sizes[j] for j in others)
        opp_desired = math.prod(len(region.sets[j]) for j in others)
        margins.append((opp_total - opp_desired) - len(region.sets[i]))
    return all(m >= 0 for m in margins), tuple(margins)


def exactify(game: Game, region: RectRegion, promise: PaymentPromise) -> PaymentPromise:
    """Big-M rewrite giving each desired strategy a private off-region profile
    where it is strictly best, making the implementation exact without
    raising the worst-case payment over the desired region.

    Requires an equitable region shape and a promise that implements the
    region with finite payments on it. Desired regions above
    ``MAX_PROFILES`` profiles are refused before the promise is priced.
    """
    game = _require_normal(game)
    equitable, margins = is_equitable(game, region)
    if not equitable:
        raise ValueError(f"not equitable: per-player margins {margins}")
    _refuse_large_region(region)
    delta = _max_payment_over(ModifiedGameView(game, promise), region)
    if not delta.is_finite:
        raise ValueError("promise is infinite on the desired region")

    if not verify(game, promise, region, INF, "subset").holds:
        raise ValueError("promise does not implement the desired region")

    big_m = game.max_utility() + delta + ExtValue(1)
    tables: list[dict[Profile, ExtValue]] = []
    for i in range(game.n_players):
        entries = promise.entries[i]
        table = {o: entries[o] for o in region.profiles() if entries.get(o, ZERO) != ZERO}
        # equitability leaves at least one private off-region part per desired
        # strategy: the k-th desired strategy keeps its k-th off-region key
        for k, off_region in enumerate(_off_region_rows(game, region, i)):
            for key in off_region:
                base = game.utility(i, key)
                table[key] = big_m + 1 - base if key == off_region[k] else big_m - base
        tables.append(table)
    # canonical by construction: nonzero promise entries, and bonuses of at least big_m - u > 0
    return PaymentPromise(game.kind, tuple(tables))


def solve_exact(game: Game, region: RectRegion) -> SolveResult:
    """Minimum-budget search followed by the exactifying rewrite."""
    game = _require_normal(game)
    equitable, margins = is_equitable(game, region)
    if not equitable:
        raise ValueError(f"not equitable: per-player margins {margins}")
    partial = min_budget_solve(game, region)
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
    to the neighborhood. A player with undesired strategies and more than
    ``MAX_PROFILES`` opponent profiles in the region (joint choices of
    ``game.opponents``) is refused before any payoff is compared, and so is
    a check that could read more than ``MAX_PAYOFFS`` payoffs: two per
    (undesired, desired, opponent profile in the region) triple, summed over
    the players.
    """
    view = _as_view(game)
    region.validate_for(view.game)
    reads = 0
    for i in range(view.n_players):
        undesired = view.sizes[i] - len(region.sets[i])
        if undesired:
            count = math.prod(len(region.sets[j]) for j in view.game.opponents(i))
            if count > MAX_PROFILES:
                raise ValueError(
                    f"player {i} has {count} opponent profiles in the region, above the "
                    f"{MAX_PROFILES} cap on the stability check"
                )
            reads += 2 * undesired * len(region.sets[i]) * count
    if reads > MAX_PAYOFFS:
        raise ValueError(
            f"the stability check needs {reads} payoff reads, above the {MAX_PAYOFFS} cap"
        )
    assignments: list[tuple[int, int, int]] = []
    for i in range(view.n_players):
        for x in region.complement(view.game, i):
            counter = None
            for p in region.sets[i]:
                if all(
                    view.payoff(i, x, opp) <= view.payoff(i, p, opp)
                    for opp in view.game.opponent_profiles(i, region)
                ):
                    counter = p
                    break
            if counter is None:
                return PneReport(holds=False, defector=(i, x), assignments=None)
            assignments.append((i, x, counter))
    return PneReport(holds=True, defector=None, assignments=tuple(assignments))


def pne_promise(
    game: "AnyGame | ModifiedGameView", region: RectRegion
) -> tuple[PneReport, PaymentPromise | None]:
    """The stability check of ``region`` and, when it holds, the promise
    that implements the region for free: infinity on desired rows whenever
    some opponent leaves the region, nothing else.

    On regions that leave every player some undesired opponent profile, the
    infinite entries make each outside strategy strictly dominated while
    never touching an undominated profile, so the promise verifies at
    budget 0. Desired regions above ``MAX_PROFILES`` profiles, which
    ``verify`` could not price, are refused before the check.
    """
    _refuse_large_region(region)
    view = _as_view(game)
    report = is_pne(view, region)
    if not report.holds:
        return report, None
    tables = tuple(
        dict.fromkeys(itertools.chain.from_iterable(_off_region_rows(view.game, region, i)), INF)
        for i in range(view.n_players)
    )
    return report, PaymentPromise(view.game.kind, tables)

