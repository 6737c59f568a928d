"""The five mixing rules, sigma-priority, and generic power-family h-rules.

Each rule maps a problem to a utility profile together with one
representative mixture realizing it.  UTIL, CUT, RP, EGAL and sigma-priority
are exact (rational arithmetic end to end).  NMP and the h-rules maximize
a concave welfare sum, of log U_i or of sign(q) * U_i^q, with one numeric
solver over outcome classes (``_WelfareSolver``: a multiplicative
fixed-point step plus Newton refinement); NMP is its log member.  NMP's
rounded solution is certified afterwards by an exact rational KKT residual.

Representative-mixture conventions (the rules are welfarist, so many
mixtures can realize the same utilities; these conventions make the output
deterministic and permutation-equivariant):

- UTIL: uniform over the distinct maximal-support column classes, split
  uniformly inside each class of identical columns.
- CUT: each agent splits her 1/n share the same way over the maximal-support
  classes within her like-set.
- sigma-priority: uniform over the final feasible outcome set.
- RP: the exact average of the sigma-priority mixtures.
- EGAL: the minimum-Euclidean-norm mixture among those realizing the leximin
  utilities (unique, hence equivariant).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import lp
from .core import Mixture, Problem, utilities

__all__ = [
    "RuleId",
    "RULE_KINDS",
    "UTIL",
    "EGAL",
    "RP",
    "CUT",
    "NMP",
    "HRULE",
    "NmpSolution",
    "HRuleSolution",
    "util_rule",
    "cut_rule",
    "sigma_priority",
    "rp_exact",
    "egal_rule",
    "nmp_rule",
    "h_rule",
    "kkt_residual",
    "evaluate",
    "RP_STEP_BUDGET",
    "DEFAULT_NMP_TOL",
]

# Random priority's DP steps (feasible sets reached x agent types) that
# rp_exact accepts: 2^10 sets and 10 types bound every profile with n <= 10.
RP_STEP_BUDGET = 10 * 2**10
DEFAULT_NMP_TOL = Fraction(1, 10**9)
_ITERATION_CAP = 10**6
_SNAP = 1e-13  # numeric coordinates below this are treated as exact zeros
RULE_KINDS = ("UTIL", "EGAL", "RP", "CUT", "NMP", "HRULE")


@dataclass(frozen=True)
class RuleId:
    """Identifier of a mixing rule, usable as a cache key.

    ``kind`` is one of ``RULE_KINDS``.  HRULE carries its exponent ``q``,
    and no other kind takes one.
    """

    kind: str
    q: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "HRULE":
            if self.q is None:
                raise ValueError("HRULE needs an exponent q")
            q = Fraction(self.q)
            if q >= 1 or q == 0:
                raise ValueError("HRULE exponent must satisfy q < 1, q != 0")
            object.__setattr__(self, "q", q)
        elif self.q is not None:
            raise ValueError(f"{self.kind} takes no exponent q")

    def __str__(self) -> str:
        if self.kind == "HRULE":
            return f"HRULE({self.q})"
        return self.kind


UTIL = RuleId("UTIL")
EGAL = RuleId("EGAL")
RP = RuleId("RP")
CUT = RuleId("CUT")
NMP = RuleId("NMP")


def HRULE(q) -> RuleId:
    return RuleId("HRULE", q=Fraction(q))


@dataclass(frozen=True)
class NmpSolution:
    """Numeric Nash-max-product solution with an exact a-posteriori certificate.

    ``kkt_residual`` is the exact rational residual of the rounded mixture:
    the worst deviation of the log-welfare gradient from the agent count over
    supported outcomes, and its worst positive overshoot over unsupported
    ones.  Zero certifies exact stationarity.
    """

    z: Mixture
    kkt_residual: Fraction
    iterations: int
    converged: bool


@dataclass(frozen=True)
class HRuleSolution:
    z: Mixture
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# helpers


def _best(classes) -> list:
    """The outcomes of each ``Problem.outcome_classes`` class of maximal support."""
    top = max(support for *_, support in classes)
    return [cls for cls, _, support in classes if support == top]


def _split(classes, weights, z: list) -> list:
    """Add each class's weight to ``z``, split uniformly inside the class."""
    for w, cls in zip(weights, classes):
        for a in cls:
            z[a] += w / len(cls)
    return z


def _uniform_on(feasible: int, m: int) -> tuple:
    """The uniform distribution over the outcomes in the bitmask ``feasible``."""
    w = Fraction(1, feasible.bit_count())
    return tuple(w if feasible >> a & 1 else Fraction(0) for a in range(m))


# ---------------------------------------------------------------------------
# UTIL and CUT


def util_rule(P: Problem):
    """Utilitarian rule: uniform average of the most-supported pure outcomes.

    Identical columns are collapsed into one class first, so duplicating an
    outcome never changes anybody's utility.
    """
    best = _best(P.outcome_classes)
    z = _split(best, [Fraction(1, len(best))] * len(best), [0] * P.m)
    mix = Mixture(tuple(z))
    return utilities(P, mix), mix


def cut_rule(P: Problem):
    """Conditional utilitarian rule.

    Each agent controls a 1/n share and spreads it uniformly over the
    distinct column classes of maximal support within her own like-set.
    """
    classes = P.outcome_classes
    z = [0] * P.m
    for t, (count, _) in enumerate(P.types):
        best = _best([c for c in classes if c[1] >> t & 1])
        _split(best, [Fraction(count, P.n * len(best))] * len(best), z)
    mix = Mixture(tuple(z))
    return utilities(P, mix), mix


# ---------------------------------------------------------------------------
# sigma-priority and random priority


def sigma_priority(P: Problem, order: Sequence[int]):
    """Lexicographic utility maximization along the agent order.

    Walk the order keeping a feasible outcome set; an agent whose like-set
    meets it is "relevant" and restricts it, anyone else is skipped.  The
    representative mixture is uniform over the final feasible set, which
    gives utility exactly 1 to relevant agents and 0 to skipped ones.
    """
    if sorted(order) != list(range(P.n)):
        raise ValueError("order must be a permutation of all agents")
    feasible = (1 << P.m) - 1
    for i in order:
        mask = P.like_mask(i)
        if feasible & mask:
            feasible &= mask
    mix = Mixture(_uniform_on(feasible, P.m))
    return utilities(P, mix), mix


def _rp_moves(types, m: int) -> dict:
    """Every feasible set the RP DP reaches from the full set, mapped to its
    live moves: (count, next feasible set) per type whose like-set splits it.

    Plain integer work, stopped with ``ValueError`` as soon as the states
    reached times the number of types exceed ``RP_STEP_BUDGET``.
    """
    moves: dict = {}
    todo = [(1 << m) - 1]
    while todo:
        feasible = todo.pop()
        if feasible in moves:
            continue
        if (len(moves) + 1) * len(types) > RP_STEP_BUDGET:
            raise ValueError(
                f"random priority needs more than {RP_STEP_BUDGET} DP steps "
                f"(feasible sets x {len(types)} agent types)"
            )
        live = [(c, feasible & mask) for c, mask in types]
        moves[feasible] = [(c, nxt) for c, nxt in live if nxt not in (0, feasible)]
        todo.extend(nxt for _, nxt in moves[feasible])
    return moves


def rp_exact(P: Problem):
    """Random priority: the exact average of sigma-priority over all n! orders.

    Computed by dynamic programming over the feasible outcome set F alone.
    An agent whose like-set contains F or misses it is inert: it cannot
    change F, now or after F shrinks.  Every agent already passed in the
    order is inert, since it either cut F down to its like-set or was
    skipped.  So the next agent to act is uniform over the live agents, whose
    like-sets split F, drawn by type and weighted by count; the DP needs no
    record of who has passed.  Its states are counted first, and a profile
    over ``RP_STEP_BUDGET`` is refused before any rational arithmetic; the
    rule is #P-hard in general.  States are filled smallest first, as every
    move leads to a strict subset.
    """
    m = P.m
    moves = _rp_moves(P.types, m)
    average = {}
    for feasible in sorted(moves, key=int.bit_count):
        live = moves[feasible]
        if not live:
            average[feasible] = _uniform_on(feasible, m)
            continue
        total = [Fraction(0)] * m
        for c, nxt in live:
            for a, x in enumerate(average[nxt]):
                total[a] += c * x
        weight = sum(c for c, _ in live)
        average[feasible] = tuple(x / weight for x in total)
    mix = Mixture(average[(1 << m) - 1])
    return utilities(P, mix), mix


# ---------------------------------------------------------------------------
# EGAL


def egal_rule(P: Problem):
    """Leximin-optimal utilities via iterated exact LPs, one LP per round.

    A round maximizes a common floor t for the unfrozen agents and freezes
    at t those whose floor row has a nonzero dual: by complementary
    slackness they sit at t at every optimum (Ogryczak & Sliwinski 2006).
    At most k LPs for k agent types, everything exact.  The LPs run over
    types and outcome classes: clones always share one utility, and only a
    class's total weight matters to anybody.
    """
    m, k, classes = P.m, len(P.types), P.outcome_classes
    rows = [tuple(likers >> t & 1 for _, likers, _ in classes) for t in range(k)]
    outcomes, width = [cls for cls, _, _ in classes], len(classes)
    simplex_row = ((1,) * width + (0,), lp.EQ, 1)
    objective = (0,) * width + (1,)

    frozen = {}  # type index -> utility
    unfrozen = list(range(k))
    zstar = None
    while unfrozen:
        # variables: one weight per outcome class, then t
        fixed = [(rows[j] + (0,), lp.EQ, val) for j, val in frozen.items()]
        floor = [(rows[j] + (-1,), lp.GE, 0) for j in unfrozen]
        out = lp.solve_lp(
            lp.LinearProgram(objective, tuple([simplex_row] + floor + fixed))
        )
        if out.status != "optimal":
            raise RuntimeError(f"leximin round LP is {out.status}")
        t = out.value
        zstar = out.solution[:width]
        # t's reduced cost 1 + (sum of floor duals) is <= 0, so one is nonzero
        newly = [j for j, y in zip(unfrozen, out.duals[1:]) if y != 0]
        if not newly:
            raise RuntimeError("leximin round must freeze at least one agent")
        frozen.update(dict.fromkeys(newly, t))
        unfrozen = [j for j in unfrozen if j not in frozen]

    sizes = [len(cls) for cls in outcomes]
    w = _min_norm_weights(rows, [frozen[j] for j in range(k)], sizes, zstar)
    mix = Mixture(tuple(_split(outcomes, w, [0] * m)))
    return utilities(P, mix), mix


def _min_norm_weights(rows, vals, sizes, start) -> list:
    """The class weights w >= 0 with sum w = 1 and rows . w = vals that
    minimize sum w_c^2 / sizes[c].

    A class of s outcomes holding weight w adds at least w^2/s to the squared
    norm of a mixture, with equality exactly when w is split uniformly, so
    ``_split`` of the result is the minimum-Euclidean-norm mixture with the
    given utilities.  That point is unique, hence invariant under any
    relabeling symmetry of the input.  Primal active-set iteration from the
    feasible ``start``.
    """
    k = len(sizes)
    B = [(1,) * k, *rows]
    c = [1, *vals]
    w = list(start)

    working = {a for a in range(k) if w[a] == 0}
    for _ in range(4 * (k + 2) * (k + 2) + 16):
        free = [a for a in range(k) if a not in working]
        # lambda solves the integer Gram system B S B^T lambda = c over the
        # free classes; grad = B^T lambda, and on the free classes
        # w_eq = sizes * grad, the same for every solution lambda
        gram = [[sum(sizes[a] * r1[a] * r2[a] for a in free) for r2 in B] for r1 in B]
        lam = lp.solve_linear(gram, c)
        grad = [sum(y * row[a] for y, row in zip(lam, B)) for a in range(k)]
        w_eq = [Fraction(0) if a in working else sizes[a] * grad[a] for a in range(k)]
        if all(w_eq[a] >= 0 for a in free):
            # dual check on the working set: mu_a = -grad_a >= 0
            bad = next((a for a in sorted(working) if grad[a] > 0), None)
            if bad is None:
                return w_eq
            working.discard(bad)
            w = w_eq
            continue
        # line search from w toward w_eq, stop at the first blocking zero
        alpha = Fraction(1)
        blocker = None
        for a in free:
            if w_eq[a] < 0:
                step = w[a] / (w[a] - w_eq[a])
                if step < alpha:
                    alpha = step
                    blocker = a
        w = [w[a] + alpha * (w_eq[a] - w[a]) for a in range(k)]
        if blocker is not None:
            w[blocker] = Fraction(0)
            working.add(blocker)
    raise RuntimeError("active-set iteration failed to converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# NMP and h-rules


def kkt_residual(P: Problem, z: Mixture) -> Fraction:
    """Exact stationarity residual of the Nash log-welfare gradient at ``z``.

    For supported outcomes the gradient sum must equal the agent count n; for
    unsupported ones it may not exceed n.  The returned rational is the worst
    violation; 0 certifies stationarity exactly.
    """
    if z.m != P.m:
        raise ValueError("dimension mismatch")
    inv = []
    for count, mask in P.types:
        U = z.weight_on(mask)
        if U == 0:
            raise ValueError("kkt_residual needs every agent utility positive")
        inv.append(Fraction(count) / U)
    n, residual = P.n, Fraction(0)
    for cls, likers, _ in P.outcome_classes:
        g = sum((x for t, x in enumerate(inv) if likers >> t & 1), Fraction(0))
        for a in cls:
            residual = max(residual, abs(g - n) if z.z[a] > 0 else g - n)
    return residual


def _float_to_mixture(zf, m: int) -> Mixture:
    """Round floats to dyadic rationals that sum to exactly 1."""
    scale = 1 << 52
    ints = [max(0, round(x * scale)) for x in zf]
    coords = [Fraction(v, scale) for v in ints]
    drift = 1 - sum(coords)
    top = max(range(m), key=lambda a: coords[a])
    coords[top] += drift
    return Mixture(tuple(coords))


def _solve_dense_float(A, b):
    """Gaussian elimination with partial pivoting; returns None if singular."""
    k = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(M[r][col]))
        if abs(M[pivot][col]) < 1e-300:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1.0 / M[col][col]
        for r in range(k):
            if r != col and M[r][col] != 0.0:
                f = M[r][col] * inv
                for c in range(col, k + 1):
                    M[r][c] -= f * M[col][c]
    return [M[r][k] / M[r][r] for r in range(k)]


class _WelfareSolver:
    """Maximize a welfare sum of c * h(U) over types, on the simplex.

    A subclass is the family h: per type, ``weights`` gives c*h'(U) and
    ``curvatures`` c*h''(U); ``multiplier`` is lambda = sum_a z_a g_a, which
    every supported gradient sum g_a equals at a stationary point;
    ``objective`` is sum c*h(U).  Outcomes liked by the same types form one
    class: the objective only sees a class's total weight, and merging
    removes the Jacobian singularity duplicate outcomes would cause.
    """

    def __init__(self, P: Problem):
        types, self.n, self.m = P.types, P.n, P.m
        classes, k = P.outcome_classes, len(types)
        self.outcomes = [cls for cls, _, _ in classes]
        self.liking = [[t for t in range(k) if s >> t & 1] for _, s, _ in classes]
        self.members = [
            set(c for c, (_, s, _) in enumerate(classes) if s >> t & 1) for t in range(k)
        ]
        self.counts = [float(c) for c, _ in types]

    def mixture(self, zf) -> Mixture:
        """Round class weights to a mixture, each class split uniformly."""
        return _float_to_mixture(_split(self.outcomes, zf, [0] * self.m), self.m)

    def newton(self, zf):
        """Newton refinement of the stationarity system on the support.

        Solves g_a(z) = lambda for all supported a together with sum z = 1.
        Coordinates driven to the boundary are dropped from the support.
        Returns the refined class weights, or None if refinement failed.
        """
        members, liking = self.members, self.liking
        z = [x if x > 1e-10 else 0.0 for x in zf]
        support = [a for a in range(len(z)) if z[a] > 0.0]
        if not support:
            return None
        total = sum(z)
        z = [x / total for x in z]
        lam = None  # the multiplier of the current iterate
        for _ in range(60):
            util = [sum(z[a] for a in group) for group in members]
            if min(util) <= 0:
                return None
            if lam is None:
                lam = self.multiplier(util)
            w, curv = self.weights(util), self.curvatures(util)
            k = len(support)
            # bordered system: [J  -1; 1^T 0] [dz; dlam] = [lam - g; 1 - sum z]
            A = [[0.0] * (k + 1) for _ in range(k + 1)]
            rhs = [0.0] * (k + 1)
            for i, a in enumerate(support):
                for j, b in enumerate(support):
                    A[i][j] = sum((curv[t] for t in liking[a] if b in members[t]), 0.0)
                A[i][k] = -1.0
                rhs[i] = lam - sum(w[t] for t in liking[a])
            A[k] = [1.0] * k + [0.0]
            rhs[k] = 1.0 - sum(z[a] for a in support)
            step = _solve_dense_float(A, rhs)
            if step is None:
                # singular system (flat optimal face): regularize and retry so
                # the step still makes progress toward some stationary point
                for i in range(k):
                    A[i][i] -= 1e-8
                step = _solve_dense_float(A, rhs)
                if step is None:
                    return None
            alpha = 1.0
            for i, a in enumerate(support):
                if step[i] < 0 and z[a] + step[i] < 0.05 * z[a]:
                    alpha = min(alpha, -0.95 * z[a] / step[i])
            if alpha < 1e-6:
                # a coordinate is being driven to the boundary: drop it
                drop = min(
                    (i for i in range(k) if step[i] < 0),
                    key=lambda i: z[support[i]],
                )
                z[support[drop]] = 0.0
                support.pop(drop)
                if not support:
                    return None
                total = sum(z)
                z = [x / total for x in z]
                lam = None
                continue
            moved = 0.0
            for i, a in enumerate(support):
                z[a] += alpha * step[i]
                moved = max(moved, abs(step[i]))
            lam += alpha * step[k]
            if moved < 1e-15:
                break
        return z

    def solve(self, zf=None):
        """Run from class weights ``zf`` (default: the uniform mixture).

        Multiplicative step z_c <- z_c * g_c / lambda, averaged with the
        previous iterate whenever the objective fails to increase.  Every 25
        iterations, once the residual is below lambda/10, Newton refinement
        tries to polish the iterate; a wrong support guess reseeds the
        violating classes.  The stop test is a stationarity residual of at
        most ``DEFAULT_NMP_TOL``/2 in units of lambda/n (1 for the log
        family); class weights that repeat at a Newton checkpoint stop the
        run.  Returns the class weights with those at most ``_SNAP`` zeroed,
        the iteration count, and whether the stop test passed.
        """
        members, liking, n = self.members, self.liking, self.n
        tol_f = float(DEFAULT_NMP_TOL)
        zf = zf or [len(group) / self.m for group in self.outcomes]

        def util(zz):
            return [max(sum(zz[c] for c in group), 1e-300) for group in members]

        def residual(zz):
            U = util(zz)
            w, lam = self.weights(U), self.multiplier(U)
            g = [sum(w[t] for t in types) for types in liking]
            res = 0.0
            for c, gc in enumerate(g):
                res = max(res, abs(gc - lam) if zz[c] > _SNAP else gc - lam)
            return res, g, lam

        obj = self.objective(util(zf))
        iterations = 0
        converged = False
        checkpoints = set()
        while iterations < _ITERATION_CAP:
            iterations += 1
            res, g, lam = residual(zf)
            if res <= tol_f * 0.5 * (lam / n):
                converged = True
                break
            if iterations % 25 == 0:
                # obj is the objective at zf, so a repeated zf cycles forever
                if tuple(zf) in checkpoints:
                    break
                checkpoints.add(tuple(zf))
                if res < 1e-1 * lam:
                    refined = self.newton(zf)
                    if refined is not None:
                        ref_res, ref_g, ref_lam = residual(refined)
                        if ref_res <= tol_f * 0.5 * (ref_lam / n):
                            zf, converged = refined, True
                            break
                        if ref_res < res:
                            # correct direction but not converged, or the support
                            # must grow: reseed the violating coordinates
                            zf = [
                                max(x, 1e-8) if gc > ref_lam else x
                                for x, gc in zip(refined, ref_g)
                            ]
                            total = sum(zf)
                            zf = [x / total for x in zf]
                            obj = self.objective(util(zf))
                            continue
            cand = [x * gc / lam for x, gc in zip(zf, g)]
            total = sum(cand)
            cand = [x / total for x in cand]
            cand_obj = self.objective(util(cand))
            if cand_obj < obj or (self.damp_on_tie and cand_obj == obj):
                cand = [(x + y) / 2 for x, y in zip(zf, cand)]
                cand_obj = self.objective(util(cand))
            zf, obj = cand, cand_obj
        zf = [0.0 if x <= _SNAP else x for x in zf]
        total = sum(zf)
        return [x / total for x in zf], iterations, converged


class _LogWelfare(_WelfareSolver):
    # No damping on an exact objective tie: NMP's outputs are pinned bit for
    # bit by golden digests, and damping on ties changes some of them.
    damp_on_tie = False

    def weights(self, U):
        return [c / u for c, u in zip(self.counts, U)]

    def curvatures(self, U):
        return [-c / (u * u) for c, u in zip(self.counts, U)]

    def multiplier(self, U):
        return self.n

    def objective(self, U):
        return sum(c * math.log(u) for c, u in zip(self.counts, U))


class _PowerWelfare(_WelfareSolver):
    # Damping on an exact objective tie: without it, q = -1 can cycle until
    # the iteration cap between equal-objective class weights, such as
    # (2/3, 1/3) and (1/5, 4/5).
    damp_on_tie = True

    def __init__(self, P: Problem, q: float):
        super().__init__(P)
        self.q, self.sign = q, (1.0 if q > 0 else -1.0)

    def weights(self, U):
        return [c * abs(self.q) * u ** (self.q - 1.0) for c, u in zip(self.counts, U)]

    def curvatures(self, U):
        q = self.q
        return [c * abs(q) * (q - 1.0) * u ** (q - 2.0) for c, u in zip(self.counts, U)]

    def multiplier(self, U):
        return sum(c * abs(self.q) * u**self.q for c, u in zip(self.counts, U))

    def objective(self, U):
        return sum(c * self.sign * u**self.q for c, u in zip(self.counts, U))


def nmp_rule(P: Problem) -> NmpSolution:
    """Nash max product: maximize the sum of log utilities over the simplex.

    The log member of the welfare solver, whose step is z_a <- z_a * (1/n)
    * sum over agents liking a of 1/U_i.  The final iterate is rounded to
    exact rationals and certified by ``kkt_residual``.  When the float stop
    test passed but the exact residual exceeds ``DEFAULT_NMP_TOL`` (zeroing a
    tiny class weight moved the utilities of small-utility types), the
    solver resumes once from the snapped class weights.
    """
    solver = _LogWelfare(P)
    zf, iterations, converged = solver.solve()
    mix = solver.mixture(zf)
    residual = kkt_residual(P, mix)
    if converged and residual > DEFAULT_NMP_TOL:
        zf, extra, converged = solver.solve(zf)
        iterations += extra
        mix = solver.mixture(zf)
        residual = kkt_residual(P, mix)
    return NmpSolution(
        z=mix,
        kkt_residual=residual,
        iterations=iterations,
        converged=converged and residual <= DEFAULT_NMP_TOL,
    )


def h_rule(P: Problem, q) -> HRuleSolution:
    """Power-family welfare rule: maximize sum of sign(q) * U_i^q, q < 1, q != 0.

    The power member of the welfare solver, with gradient weights h'(U) =
    |q| * U^(q-1).  The objective is strictly concave in utilities, so the
    optimal utility profile is unique.  A q too large or too small in
    magnitude for a nonzero float, or whose powers overflow a float in the
    solve, raises ``ValueError``.
    """
    q = HRULE(q).q  # RuleId refuses q >= 1 and q == 0
    try:
        qf = float(q)
    except OverflowError:
        qf = 0.0  # as far out of float range as an underflow to 0
    if qf == 0:
        raise ValueError("hrule exponent q is out of float range")
    solver = _PowerWelfare(P, qf)
    try:
        zf, iterations, converged = solver.solve()
    except OverflowError:
        raise ValueError(f"hrule exponent q={q} overflows the float solver") from None
    return HRuleSolution(z=solver.mixture(zf), iterations=iterations, converged=converged)


# ---------------------------------------------------------------------------
# dispatcher


@functools.lru_cache(maxsize=1 << 17)
def evaluate(rule: RuleId, P: Problem):
    """Evaluate a rule, returning (UtilityProfile, Mixture).  Memoized."""
    if rule.kind == "UTIL":
        return util_rule(P)
    if rule.kind == "CUT":
        return cut_rule(P)
    if rule.kind == "RP":
        return rp_exact(P)
    if rule.kind == "EGAL":
        return egal_rule(P)
    if rule.kind == "NMP":
        sol = nmp_rule(P)
        return utilities(P, sol.z), sol.z
    if rule.kind == "HRULE":
        sol = h_rule(P, rule.q)
        if not sol.converged:  # no certificate, unlike NMP's KKT residual
            raise ValueError(
                f"hrule q={rule.q} did not converge in {sol.iterations} iterations"
            )
        return utilities(P, sol.z), sol.z
    raise ValueError(f"unknown rule {rule}")  # pragma: no cover


def is_numeric(rule: RuleId) -> bool:
    """Rules whose outputs carry a numeric tolerance rather than exactness."""
    return rule.kind in {"NMP", "HRULE"}
