"""Acceptance suite: the eight exhaustive desk-scale checks, all at zero
tolerance (exact equality over finite fields).

Run under pytest (``pytest -s tests/test_acceptance.py`` shows the one
pass/fail line per criterion) or standalone (``PYTHONPATH=src python3
tests/test_acceptance.py`` in a checkout where the package is not
installed).
"""

from itertools import product
from math import comb

from hilbhasse.field import FieldCtx
from hilbhasse.linalg import Subspace, induced_filtration
from hilbhasse.schubert import (hasse_section, stratum_label,
                                torus_weight_space, vanishing_order_on_stratum)
from hilbhasse.weyl import (CocharDatum, WeylElem, all_weyl_elems,
                            hodge_character, weyl_act, zipflag_pullback)
from hilbhasse.zipgroup import (borel_order, bruhat_census, enumerate_E, enumerate_G,
                                zip_group_generators)
from hilbhasse.zips import HilbertZip, check_equivalence, enumerate_zips
from oracles import conj_rows, enumerated_census, filtration_level, hodge_span, orbit_partition

# (p, k, n): F_2, F_3 and F_4, each with n <= 3.  F_4 is the one field here
# on which Frobenius is not the identity.
EQUIVALENCE_SCALE = [(p, k, n) for p, k in ((2, 1), (3, 1), (2, 2)) for n in (1, 2, 3)]
# criterion 1 alone also streams, keeping no report, F_5 with n = 3 (46,656
# zips), F_3 with n = 4 (65,536) and F_2 with n = 5 (59,049), the first
# scales with 16- and 32-term wedges
STREAMED_SCALE = [(5, 1, 3), (3, 1, 4), (2, 1, 5)]
# (p, k, n): F_2, F_3 and F_4, each with n <= 2.  F_4 with n = 2 is the first
# case where the Frobenius coupling of the diagonals acts nontrivially at more
# than one factor.
ORBIT_SCALE = [(p, k, n) for p, k in ((2, 1), (3, 1), (2, 2)) for n in (1, 2)]


def make_sweep():
    """Memoized sweeps keyed by (p, k, n); conftest serves it as the session
    fixture ``zip_reports``."""
    cache = {}

    def sweep(p, k, n):
        key = (p, k, n)
        if key not in cache:
            cache[key] = {(z.omega, z.conj): check_equivalence(z)
                          for z in enumerate_zips(FieldCtx(p, k), n)}
        return cache[key]

    return sweep


# -- criterion bodies -------------------------------------------------------------


def block_levels(ctx):
    """The wedge reference's level of each one-block zip, keyed by its
    (Omega, C) pair of lines: (q+1)^2 levels."""
    lines = [(1, t) for t in range(ctx.q)] + [(0, 1)]
    levels = {}
    for o in lines:
        for c in lines:
            z = HilbertZip(ctx, 1, (o,), (c,))
            levels[o, c] = filtration_level(hodge_span(z), conj_rows(z))
    return levels


def streamed_reports(ctx, n):
    """Each zip's report in sweep order, keeping none.  Each zip's line
    ranks, in (Omega_1, ..., Omega_n, C_1, ..., C_n) order, must strictly
    increase from zip to zip: a line ranks t for (1, t) and q for (0, 1) in
    its block, so the zips are distinct and in lexicographic order.  Flag i
    must be set iff C_i and Omega_i have one rank, and the level must be the
    sum of the blocks' levels in the wedge reference's table."""
    last, q = (), ctx.q
    levels = block_levels(ctx)
    for z in enumerate_zips(ctx, n):
        ranks = tuple([b if a else q for a, b in z.omega + z.conj])
        assert ranks > last, (ctx.p, ctx.k, n, ranks, last)
        last = ranks
        report = check_equivalence(z)
        assert report.flags == tuple([ranks[i] == ranks[n + i] for i in range(n)]), ranks
        assert report.m_max == sum([levels[pair] for pair in zip(z.omega, z.conj)]), ranks
        yield report


def run_equivalence(sweep):
    """1: hasse order equals filtration level on every enumerated zip."""
    total = 0
    for p, k, n in EQUIVALENCE_SCALE + STREAMED_SCALE:
        reports = (streamed_reports(FieldCtx(p, k), n)
                   if (p, k, n) in STREAMED_SCALE else sweep(p, k, n).values())
        count = 0
        for report in reports:
            assert report.hasse_order == report.m_max, (p, k, n, report)
            assert report.consistent
            count += 1
        assert count == (p ** k + 1) ** (2 * n), (p, k, n)
        total += count
    assert total == 192703


def run_stratum_orders():
    """2: the product section vanishes to order n - l(w) along every cell."""
    ctx = FieldCtx(2)
    for n in range(1, 7):
        h = hasse_section(ctx, n)
        for w in all_weyl_elems(n):
            assert vanishing_order_on_stratum(h, w) == n - w.length(), (n, w)


def run_weight_space():
    """3: the weight space at the Hodge character is spanned by the product
    of the first coordinates."""
    ctx = FieldCtx(2)
    for n in range(1, 5):
        basis = torus_weight_space(ctx, n, hodge_character(n))
        assert len(basis) == 1, n
        assert basis[0] == hasse_section(ctx, n), n


def run_pullback_identity():
    """4: the pullback of (-eta, w0 eta) is (p - 1) eta for every preset."""
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            for preset in (CocharDatum.split, CocharDatum.inert):
                datum = preset(n, p)
                eta = hodge_character(datum.n)
                w0eta = weyl_act(WeylElem.longest(n), eta)
                assert zipflag_pullback(-eta, w0eta, datum) == (p - 1) * eta, (p, n)


def run_census():
    """5: Bruhat cells partition the group with sizes q^l(w) |B|, |B|
    counted from G equals its closed form, and the census counted from the
    factors equals the census counted by enumerating G."""
    for p, k, n in ORBIT_SCALE:
        ctx = FieldCtx(p, k)
        g_list = enumerate_G(ctx, n)
        borel_size = sum(1 for g in g_list
                         if all(not f[0][1] for f in g.factors))
        # the closed form the census command checks its cells against
        assert borel_size == borel_order(ctx, n), (p, k, n)
        # each cell w holds counts[l(w)]
        counts = bruhat_census(ctx, n)
        enumerated = enumerated_census(ctx, n)
        assert sum(comb(n, length) * count
                   for length, count in enumerate(counts)) == len(g_list), (p, k, n)
        for w in all_weyl_elems(n):
            assert counts[w.length()] == enumerated[w.signs], (p, k, n, w)
            assert counts[w.length()] == ctx.q ** w.length() * borel_size, (p, k, n, w)


def run_orbit_refinement():
    """6: orbits respect stratum labels and labels carry the right order."""
    for p, k, n in ORBIT_SCALE:
        ctx = FieldCtx(p, k)
        g_list = enumerate_G(ctx, n)
        partition = orbit_partition(g_list, zip_group_generators(ctx, n))
        h = hasse_section(ctx, n)
        assert sum(partition.sizes()) == len(g_list)
        for label in partition.labels:
            assert vanishing_order_on_stratum(h, label) == n - label.length()
        # constancy of labels is enforced inside orbit_partition(); make it explicit
        for cls, label in zip(partition.classes, partition.labels):
            assert all(stratum_label(g) == label for g in cls), (p, k, n)
        # orbit-stabilizer: |class| |Stab_E(rep)| = |E|, the stabilizer counted
        # by brute force over E and |E| in closed form, so a class that merges
        # or splits orbits fails here whatever its label
        e_list = enumerate_E(ctx, n)
        assert len(e_list) == (ctx.q - 1) ** (n + 1) * ctx.q ** (2 * n), (p, k, n)
        for cls in partition.classes:
            rep = cls[0]
            stabilizer = sum(1 for e in e_list if e.a * rep == rep * e.b)
            assert len(cls) * stabilizer == len(e_list), (p, k, n, len(cls), stabilizer)


def run_graded_dimensions():
    """7: graded pieces of the induced filtration have dimension C(n, m)^2
    for block-diagonal subspaces, exhaustive over F_2 for n <= 4."""
    ctx = FieldCtx(2)
    pairs = [(ctx.one(), t) for t in ctx.elements()] + [(ctx.zero(), ctx.one())]
    for n in (1, 2, 3, 4):
        for combo in product(pairs, repeat=n):
            rows = []
            for i, pair in enumerate(combo):
                vec = [ctx.zero()] * (2 * n)
                vec[2 * i], vec[2 * i + 1] = pair
                rows.append(vec)
            omega = Subspace.from_vectors(ctx, 2 * n, rows)
            dims = [induced_filtration(omega, m).dim for m in range(n + 1)]
            assert dims[0] == comb(2 * n, n)
            for m in range(n):
                assert dims[m] - dims[m + 1] == comb(n, m) ** 2, (n, m)


def run_monotone_flip(sweep):
    """8: flipping one clear flag raises both computed orders by one."""
    for p, k, n in EQUIVALENCE_SCALE:
        reports = sweep(p, k, n)
        for (omega, conj), report in reports.items():
            for i, flag in enumerate(report.flags):
                if flag:
                    continue
                flipped = conj[:i] + (omega[i],) + conj[i + 1:]
                other = reports[(omega, flipped)]
                assert other.hasse_order == report.hasse_order + 1, (p, k, n, i)
                assert other.m_max == report.m_max + 1, (p, k, n, i)


# -- pytest entry points -----------------------------------------------------------


def test_criterion_1_equivalence(zip_reports):
    run_equivalence(zip_reports)
    print("criterion 1 (hasse order == filtration level, exhaustive): PASS")


def test_criterion_2_stratum_orders():
    run_stratum_orders()
    print("criterion 2 (stratum orders n - l(w), n <= 6): PASS")


def test_criterion_3_weight_space():
    run_weight_space()
    print("criterion 3 (hodge weight space is one-dimensional): PASS")


def test_criterion_4_pullback_identity():
    run_pullback_identity()
    print("criterion 4 (pullback identity (p-1)eta): PASS")


def test_criterion_5_census():
    run_census()
    print("criterion 5 (bruhat census law): PASS")


def test_criterion_6_orbit_refinement():
    run_orbit_refinement()
    print("criterion 6 (orbit refinement and cross-consistency): PASS")


def test_criterion_7_graded_dimensions():
    run_graded_dimensions()
    print("criterion 7 (graded piece dimensions C(n,m)^2): PASS")


def test_criterion_8_monotone_flip(zip_reports):
    run_monotone_flip(zip_reports)
    print("criterion 8 (monotone flag flip): PASS")


# -- standalone runner --------------------------------------------------------------


def main() -> int:
    sweep = make_sweep()
    criteria = [
        ("1 hasse order == filtration level", lambda: run_equivalence(sweep)),
        ("2 stratum orders n - l(w)", run_stratum_orders),
        ("3 hodge weight space dimension 1", run_weight_space),
        ("4 pullback identity (p-1)eta", run_pullback_identity),
        ("5 bruhat census law", run_census),
        ("6 orbit refinement", run_orbit_refinement),
        ("7 graded piece dimensions", run_graded_dimensions),
        ("8 monotone flag flip", lambda: run_monotone_flip(sweep)),
    ]
    failures = 0
    for name, body in criteria:
        try:
            body()
        except AssertionError as exc:
            failures += 1
            print(f"criterion {name}: FAIL ({exc})")
        else:
            print(f"criterion {name}: PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
