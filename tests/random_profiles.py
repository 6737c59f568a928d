"""Seeded random problems shared by the test modules."""

from fairmix.core import Problem


def random_problem(rng, max_n, max_m, min_n=1):
    """n in min_n .. max_n agents over m in 1 .. max_m outcomes, each
    like-set uniform over the nonempty subsets."""
    n = rng.randint(min_n, max_n)
    m = rng.randint(1, max_m)
    return Problem(m, tuple((1, rng.randrange(1, 1 << m)) for _ in range(n)))
