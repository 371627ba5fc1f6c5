"""The greedy one-vertex row-removal rule, kept as a test oracle.

``orbit_maps.bipartition_to_label`` reads a normal-form bipartition
(mu; nu) as the ell = 1 striped bipartition with markings mu and deletes
the rows that ``removable_rows_cyclic`` names.  This module keeps the rule
it replaced: conditions on neighbouring rows of (mu, nu), re-evaluated on
the shrunken pair after each deletion, and the translation built on them.
"""

from __future__ import annotations

from nilquiver.partitions import FrobeniusPartition, Partition


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
