"""The row-removal rules that ``orbit_maps`` replaced, kept as test oracles.

``orbit_maps.removable_rows_cyclic`` reads condition (b), a later row of
another kind marked at least as far right, in one pass from the bottom.
This module keeps the pairwise scan it replaced, which compares each row
with every later row.

``orbit_maps.bipartition_to_label`` reads a normal-form bipartition
(mu; nu) as the ell = 1 striped bipartition with markings mu and deletes
the rows that ``removable_rows_cyclic`` names.  This module keeps the rule
it replaced: conditions on neighbouring rows of (mu, nu), re-evaluated on
the shrunken pair after each deletion, and the translation built on them.
"""

from __future__ import annotations

from nilquiver import StripedBipartition
from nilquiver.partitions import FrobeniusPartition, Partition


def removable_rows_by_pairs(s: StripedBipartition) -> frozenset[int]:
    """Rows (1-based) with (a) nu_i <= 0, (b) a later row j with
    nu_j >= nu_i and (lam_j, epsilon_j) != (lam_i, epsilon_i), or (c) an
    earlier row j with mu_j <= mu_i, each condition read pair by pair."""
    rows = s.rows()
    mu = s.mu
    removed = set()
    for i, (length, colour, mark) in enumerate(rows):
        later = rows[i + 1:]
        if (
            mark <= 0
            or any(n >= mark and (p, e) != (length, colour) for p, e, n in later)
            or any(m <= mu[i] for m in mu[:i])
        ):
            removed.add(i + 1)
    return frozenset(removed)


def _removal_conditions(mu: list[int], nu: list[int]) -> int | None:
    """Smallest removable row (1-based) of the current state, or None.

    Row i is removable when mu_i = mu_{i+1} (with mu_{k+1} = 0 understood
    only through the final-row rule), nu_{i-1} = nu_i, or i is the last row
    and mu_k = 0.
    """
    k = len(mu)
    for i in range(1, k + 1):
        if i < k and mu[i - 1] == mu[i]:
            return i
        if i >= 2 and nu[i - 2] == nu[i - 1]:
            return i
        if i == k and mu[i - 1] == 0:
            return i
    return None


def removable_rows(mu: Partition, nu: Partition) -> frozenset[int]:
    """Rows of lam = mu + nu that split off as unframed chains (1-based).

    Removal is greedy: the conditions are re-evaluated on the shrunken pair
    after each deletion, which is what makes ties in constant runs shed
    exactly the right number of rows.  The returned indices refer to the
    original rows.
    """
    k = max(len(mu), len(nu))
    rows = list(zip((mu[i] for i in range(k)), (nu[i] for i in range(k))))
    original = list(range(1, k + 1))
    removed: set[int] = set()
    while True:
        cur_mu = [m for m, _ in rows]
        cur_nu = [n for _, n in rows]
        i = _removal_conditions(cur_mu, cur_nu)
        if i is None:
            break
        removed.add(original[i - 1])
        del rows[i - 1]
        del original[i - 1]
    return frozenset(removed)


def bipartition_to_label(mu: Partition, nu: Partition) -> tuple[Partition, Partition]:
    """Translate a normal-form bipartition into (framed partition, chain parts).

    The removable rows contribute their full lengths as unframed chains;
    the surviving rows, with one box less in the mu direction, are the
    Frobenius coordinates (legs, arms) = (mu - 1, nu) of the framed
    partition.
    """
    k = max(len(mu), len(nu))
    removed = removable_rows(mu, nu)
    zeta = Partition(sorted((mu[i - 1] + nu[i - 1] for i in removed), reverse=True))
    kept = [i for i in range(1, k + 1) if i not in removed]
    legs = tuple(mu[i - 1] - 1 for i in kept)
    arms = tuple(nu[i - 1] for i in kept)
    assert all(x >= 0 for x in legs), "surviving rows must keep a positive mark"
    eta = FrobeniusPartition(legs, arms).partition()
    assert eta.size + zeta.size == mu.size + nu.size, "boxes must be conserved"
    return eta, zeta
