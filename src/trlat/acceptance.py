"""Desk-scale verification suite: every headline count, table, and counterexample.

Each criterion returns (passed, detail).  The CLI's verify-paper subcommand
and tests/test_acceptance.py both run this registry.
"""

from __future__ import annotations

import functools
import random
from .groups import abelian_group, cyclic_group, make_group
from .lattice import automorphisms, subgroup_lattice
from .transfer import (SystemList, TransferSystem, _conjugation_gap, aut_orbits,
                       closed_form_normal_source, closed_form_normal_target,
                       enumerate_all, generate, is_saturated, meet, validate)
from .chains import maximal_chain
from .realize import (_cyclic_lattice, index_set, linisom_cyclic, linisom_image,
                      linisom_image_cyclic, realize_saturated, steiner_cyclic, steiner_image,
                      universe, unrealized_fixture)


def _lattice(name: str):
    return subgroup_lattice(make_group(name))


def _enumerated(name: str) -> SystemList:
    return enumerate_all(_lattice(name))


def criterion_lattice_counts() -> tuple[bool, str]:
    """Tr sizes: towers 1/2/5/14 for p in {2,3}; C_pq 10; K4 19; Sym3 9; Q8 68;
    D10 9; C3xC3 36 via 2^(p+2)+p+1."""
    expected = {"C1": 1, "C2": 2, "C3": 2, "C4": 5, "C9": 5, "C8": 14, "C27": 14,
                "C6": 10, "C15": 10, "K4": 19, "Sym3": 9, "Q8": 68, "D10": 9}
    got = {name: len(_enumerated(name)) for name in expected}
    rank2 = {p: len(enumerate_all(subgroup_lattice(abelian_group((p, p)))))
             for p in (2, 3)}
    formula_ok = all(rank2[p] == 2 ** (p + 2) + p + 1 for p in (2, 3))
    ok = got == expected and formula_ok
    return ok, (f"counts {got}; rank-2 counts {rank2} vs formula "
                f"{[2 ** (p + 2) + p + 1 for p in (2, 3)]}")


def criterion_q8_orbit_profile() -> tuple[bool, str]:
    """Q8 systems fall into 29 orbits: 1 of size 6, 17 of size 3, 11 of size 1."""
    orbits, profile = aut_orbits(_enumerated("Q8"), automorphisms(make_group("Q8")))
    ok = len(orbits) == 29 and profile == [(6, 1), (3, 17), (1, 11)]
    return ok, f"{len(orbits)} orbits, profile {profile}"


def _realized(L) -> set[TransferSystem]:
    return set(steiner_image(L)) | set(linisom_image(L)[0])


def criterion_realizability_unions() -> tuple[bool, str]:
    """Realized fractions 9/19 (K4), 5/9 (Sym3), 22/68 (Q8), with the
    unrealized systems matching the shipped lists orbit for orbit."""
    expected = {"K4": (9, 19), "Sym3": (5, 9), "Q8": (22, 68)}
    details = []
    ok = True
    for name, (hits, total) in expected.items():
        L = _lattice(name)
        tr = enumerate_all(L)
        realized = _realized(L)
        details.append(f"{name}: {len(realized)}/{len(tr)}")
        if (len(realized), len(tr)) != (hits, total):
            ok = False
            continue
        unrealized = [T for T in tr if T not in realized]
        orbits, _ = aut_orbits(unrealized, automorphisms(L.group))
        # the shipped reps' orbits are exactly the unrealized orbits
        shipped = set(unrealized_fixture(L))
        if not (shipped <= set(unrealized) and all(
                not shipped.isdisjoint({unrealized[i] for i in orbit}) for orbit in orbits)):
            ok = False
            details.append(f"{name}: unrealized orbit lists differ")
    return ok, "; ".join(details)


def criterion_cp2_complete_cp3_excluded() -> tuple[bool, str]:
    """For p in {2,3}: the two images cover all of Tr(C_p^2); the system
    generated by (1, C_p^2) inside Tr(C_p^3) avoids both images."""
    details = []
    ok = True
    for p in (2, 3):
        L2 = subgroup_lattice(cyclic_group(p * p))
        covered = set(steiner_image(L2)) | set(linisom_image_cyclic(p * p))
        total = set(enumerate_all(L2))
        if covered != total or len(total) != 5:
            ok = False
        details.append(f"p={p}: covered {len(covered)}/{len(total)}")
        L3 = subgroup_lattice(cyclic_group(p ** 3))
        bad = generate(L3, [(0, 2)])  # 1 -> C_{p^2} on the divisor chain
        outside = (bad not in set(steiner_image(L3))
                   and bad not in set(linisom_image_cyclic(p ** 3)))
        if not outside:
            ok = False
        details.append(f"p={p}: exclusion {'holds' if outside else 'FAILS'}")
    return ok, "; ".join(details)


def criterion_prime_power_classification() -> tuple[bool, str]:
    """For n in {8, 9, 16, 27}: the isometries image is exactly the saturated
    systems, and every saturated system round-trips through its index set."""
    details = []
    ok = True
    for n in (8, 9, 16, 27):
        saturated = {T for T in _enumerated(f"C{n}") if is_saturated(T)}
        image = set(linisom_image_cyclic(n))
        eq = saturated == image
        trips = all(linisom_cyclic(n, realize_saturated(T)) == T for T in saturated)
        ok = ok and eq and trips
        details.append(f"C{n}: image==saturated {eq} ({len(image)}), round trips {trips}")
    return ok, "; ".join(details)


def criterion_cpq_classification() -> tuple[bool, str]:
    """Isometries images over C6/C10/C15/C35 equal the saturated systems minus
    the stated single-edge exceptions."""
    details = []
    ok = True
    for p, q, missing_orders in ((2, 3, [(1, 2), (1, 3)]), (2, 5, [(1, 5)]),
                                 (3, 5, [(1, 5)]), (5, 7, [])):
        n = p * q
        L, of_order = _cyclic_lattice(n)
        saturated = {T for T in enumerate_all(L) if is_saturated(T)}
        excluded = {generate(L, [(of_order[d], of_order[e])]) for d, e in missing_orders}
        image = set(linisom_image_cyclic(n))
        eq = image == saturated - excluded
        ok = ok and eq
        details.append(f"C{n}: |image|={len(image)}, "
                       f"|saturated|-{len(excluded)}={len(saturated) - len(excluded)}, "
                       f"equal {eq}")
    return ok, "; ".join(details)


def criterion_counterexamples() -> tuple[bool, str]:
    """C5: the embedding map fails to preserve meets.  C9: the isometries map
    sends nested universes to incomparable systems."""
    t1 = steiner_cyclic(5, universe(5, {1, 4}))
    t2 = steiner_cyclic(5, universe(5, {2, 3}))
    t_meet_of_images = meet(t1, t2)
    t_image_of_meet = steiner_cyclic(5, universe(5, {0}))
    L5 = t1.lattice
    meets_fail = (t_meet_of_images == TransferSystem.maximum(L5)
                  and t_image_of_meet == TransferSystem.diagonal(L5)
                  and t_meet_of_images != t_image_of_meet)
    small, large = universe(9, {3, 6}), universe(9, {1, 3, 6, 8})
    u1, u2 = linisom_cyclic(9, small), linisom_cyclic(9, large)
    nested = set(index_set(9, small)) < set(index_set(9, large))
    incomparable = nested and not u1.refines(u2) and not u2.refines(u1)
    ok = meets_fail and incomparable
    return ok, f"meet failure {meets_fail}; order failure {incomparable}"


ORACLE_GROUPS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
                 "K4", "C2xC4", "Q8", "Sym3")
GENERATOR_SAMPLES = 200  # random relations generated on each oracle group


def criterion_generator_correctness() -> tuple[bool, str]:
    """On each order-<=8 group whose pair orbits fit the search bound:
    random relations generate the same system as the oracle (intersection of
    all enumerated systems containing them), and match the closed normal
    forms whenever those apply."""
    rng = random.Random(20260810)
    checked_closed = 0
    for name in ORACLE_GROUPS:
        G = make_group(name)
        L = subgroup_lattice(G)
        systems = list(enumerate_all(L))
        for _ in range(GENERATOR_SAMPLES):
            k = rng.randint(0, min(len(L.proper_pairs), 5))
            R = rng.sample(L.proper_pairs, k) if k else []
            T = generate(L, R)
            wanted = sum(1 << a * L.n + b for a, b in R)
            containing = [S for S in systems if S.bits & wanted == wanted]
            if functools.reduce(meet, containing) != T:
                return False, f"oracle mismatch on {name} with R={R}"
            got = _matching_closed_form(L, R)
            if got is not None:
                checked_closed += 1
                if got != T:
                    return False, f"closed-form mismatch on {name} with R={R}"
        # single normal-to-normal pairs: the two-sided closed form
        for k, h in L.proper_pairs:
            if L.normal[k] and L.normal[h]:
                cf = closed_form_normal_source(L, k, [h])
                cf2 = closed_form_normal_target(L, [k], h)
                if cf != generate(L, [(k, h)]) or cf2 != cf:
                    return False, f"normal-pair closed form mismatch on {name} ({k},{h})"
    # closed forms still apply beyond the enumeration bound
    L8 = subgroup_lattice(abelian_group((2, 2, 2)))
    for k, h in L8.proper_pairs:
        if closed_form_normal_source(L8, k, [h]) != generate(L8, [(k, h)]):
            return False, "closed form mismatch on C2xC2xC2"
    return True, (f"{len(ORACLE_GROUPS)} groups x {GENERATOR_SAMPLES} samples; "
                  f"{checked_closed} random closed-form hits; "
                  "C2xC2xC2 covered by closed forms")


def _matching_closed_form(L, R):
    """Apply a closed normal form when R satisfies its preconditions."""
    if not R:
        return None
    sources = {k for k, _ in R}
    targets = {h for _, h in R}
    if len(sources) == 1:
        (k,) = sources
        if L.normal[k] and _conjugation_gap(L, targets) is None:
            return closed_form_normal_source(L, k, targets)
    if len(targets) == 1:
        (h,) = targets
        if L.normal[h] and _conjugation_gap(L, sources) is None:
            return closed_form_normal_target(L, sources, h)
    return None


def criterion_filtration() -> tuple[bool, str]:
    """Maximal chains have lengths 7 (towers), 8 (K4), 13 (Q8); every element
    validates; length is one more than the pair-orbit count."""
    expected = {"C8": 7, "C27": 7, "K4": 8, "Q8": 13}
    details = []
    ok = True
    for name, length in expected.items():
        L = _lattice(name)
        chain = maximal_chain(L)
        valid = all(not validate(L, T.pairs()) for T in chain.systems)
        good = len(chain) == length == 1 + len(L.pair_orbits) and valid
        ok = ok and good
        details.append(f"{name}: length {len(chain)} valid {valid}")
    return ok, "; ".join(details)


def criterion_character_identities() -> tuple[bool, str]:
    """Blumberg-Hill's induction criterion equals linisom_cyclic's translation
    criterion on every universe I of C_n, n <= 12: C_d -> C_e holds iff,
    for each label i in I, Ind_{C_d}^{C_e} of its restriction i mod d has
    all its labels in I mod e."""
    universes = 0
    for n in range(1, 13):
        L, _ = _cyclic_lattice(n)
        for u in range(1 << n // 2):
            I = index_set(n, u)
            induced = set()
            for k, h in L.proper_pairs:
                d, e = L.order_of(k), L.order_of(h)
                reduced = {i % e for i in I}
                if all(set(_induce_lambda(d, e, i % d)) <= reduced for i in I):
                    induced.add((k, h))
            if induced != set(linisom_cyclic(n, u).pairs()):
                return False, f"induction criterion differs from linisom_cyclic on C{n}, {I}"
            universes += 1
    return True, f"equal to linisom_cyclic on all {universes} universes of C_n, n <= 12"


def _induce_lambda(d: int, n: int, m: int) -> list[int]:
    """Induction from C_d to C_n of label m, for d dividing n: labels m + d*a
    for 0 <= a < n/d."""
    return sorted((m + d * a) % n for a in range(n // d))


def criterion_noncyclic_exclusion() -> tuple[bool, str]:
    """The system generated by (trivial, G) escapes both images for K4 and
    the embedding image for C3xC3."""
    LK = _lattice("K4")
    bad_k4 = generate(LK, [(0, LK.full)])
    k4_out = bad_k4 not in _realized(LK)
    L33 = subgroup_lattice(abelian_group((3, 3)))
    bad33 = generate(L33, [(0, L33.full)])
    c33_out = bad33 not in set(steiner_image(L33))
    ok = k4_out and c33_out
    return ok, f"K4 exclusion {k4_out}; C3xC3 embedding exclusion {c33_out}"


CRITERIA = [
    ("1", "lattice-counts", criterion_lattice_counts),
    ("2", "q8-orbit-profile", criterion_q8_orbit_profile),
    ("3", "realizability-unions", criterion_realizability_unions),
    ("4", "cp2-complete-cp3-excluded", criterion_cp2_complete_cp3_excluded),
    ("5", "prime-power-classification", criterion_prime_power_classification),
    ("6", "cpq-classification", criterion_cpq_classification),
    ("7", "counterexamples", criterion_counterexamples),
    ("8", "generator-correctness", criterion_generator_correctness),
    ("9", "filtration", criterion_filtration),
    ("10", "character-identities", criterion_character_identities),
    ("11", "noncyclic-exclusion", criterion_noncyclic_exclusion),
]


def run_all() -> list[tuple[str, str, bool, str]]:
    """(number, name, passed, detail) for each criterion of CRITERIA, in order."""
    return [(number, name, *fn()) for number, name, fn in CRITERIA]
