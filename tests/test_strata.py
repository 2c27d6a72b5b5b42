import json
from functools import partial
from pathlib import Path

import pytest

from chernmather import detvar, quadric, strata
from chernmather.classpoly import ClassPoly, chern_B, csm_linear_space, involute
from chernmather.linsolve import (
    InconsistentSystem,
    NonIntegerSolution,
    NonUniqueSolution,
)
from chernmather.strata import (
    EulerTable,
    StratifiedPair,
    Stratum,
    chern_mather,
    euler_table,
)

DATA = Path(__file__).parent / "data"

# Class polynomials of the rank strata of symmetric 3x3 matrices (solver
# input fixtures; the two deeper strata are projectively dual to each other).
SYM3_OPEN = ClassPoly([1, 3, 6, 6, 3, 0], 6)
SYM3_CORANK1 = ClassPoly([0, 3, 9, 10, 6, 3], 6)
SYM3_CORANK2 = ClassPoly([0, 0, 0, 4, 6, 3], 6)


def sym3_pair():
    primal = [
        Stratum("full_rank", SYM3_OPEN, 5),
        Stratum("corank1", SYM3_CORANK1, 4),
        Stratum("corank2", SYM3_CORANK2, 2),
    ]
    dual = [
        Stratum("full_rank_d", SYM3_OPEN, 5),
        Stratum("corank1_d", SYM3_CORANK1, 4),
        Stratum("corank2_d", SYM3_CORANK2, 2),
    ]
    return StratifiedPair(6, primal, dual, [(1, 2), (2, 1)])


def quadric_cone_pair():
    # rank-3 quadric cone in P^3: open part, vertex; dual is a smooth conic
    primal = [
        Stratum("cone_open", ClassPoly([0, 2, 4, 2], 4), 2),
        Stratum("vertex", ClassPoly.monomial(3, 4), 0),
    ]
    dual = [Stratum("dual_conic", ClassPoly([0, 0, 2, 2], 4), 1)]
    return StratifiedPair(4, primal, dual, [(0, 0)])


def detvar_pair(n):
    """The stratified pair of the rank strata of n x n matrices."""
    return detvar.eu_table_det(n)[1]


def linear_flag_pair(modulus, dims):
    """A flag of linear spaces P^d in P^(N-1), largest first, against the flag
    of their duals P^(N-2-d); the deepest primal closure pairs with the
    largest dual closure.  Each open stratum is a difference of closures."""

    def side(ds, prefix):
        closures = [csm_linear_space(d, modulus) for d in ds] + [ClassPoly.zero(modulus)]
        return [
            Stratum(f"{prefix}{i}", closures[i] - closures[i + 1], d)
            for i, d in enumerate(ds)
        ]

    dims = sorted(dims, reverse=True)
    m = len(dims)
    coflag = [modulus - 2 - d for d in reversed(dims)]
    return StratifiedPair(
        modulus, side(dims, "flag"), side(coflag, "coflag"),
        [(r, m - 1 - r) for r in range(m)],
    )


# Every solved family: the fixtures, a 20-stratum linear flag, the rank
# strata for n = 2..6 and every quadric in P^2..P^10.
SOLVED_PAIRS = {
    "sym3": sym3_pair,
    "quadric_cone": quadric_cone_pair,
    "linear_flag_20": lambda: linear_flag_pair(128, [6 * k + 1 for k in range(20)]),
    **{f"detvar_{n}": partial(detvar_pair, n) for n in range(2, 7)},
    **{
        f"quadric_{n}_{r}": partial(quadric.build_pair, quadric.QuadricSpec(n, r))
        for n in range(2, 11)
        for r in range(3, n + 2)
    },
}


class TestSolveSystem:
    """One paired system at a time, through the rows of the table."""

    def test_symmetric_fixture_unique_zero(self):
        table = euler_table(sym3_pair())  # pairs (1, 2) and (2, 1)
        assert table.primal[1][1:] == (1, 0)
        assert table.dual[2][2:] == (1,)

    def test_single_smooth_self_dual_stratum(self):
        # smooth quadric surface class is fixed by the transform
        q = ClassPoly([0, 2, 4, 4], 4)
        pair = StratifiedPair(
            4, [Stratum("q", q, 2)], [Stratum("q_dual", q, 2)], [(0, 0)]
        )
        table = euler_table(pair)
        assert table.primal == ((1,),) and table.dual == ((1,),)

    def test_quadric_cone(self):
        table = euler_table(quadric_cone_pair())
        assert table.primal[0] == (1, 0)
        assert table.dual == ((1,),)

    def test_inconsistent_inputs_flagged(self):
        bad = ClassPoly([0, 3, 9, 10, 6, 4], 6)  # corrupted top coefficient
        primal = [Stratum("a", bad, 4), Stratum("b", SYM3_CORANK2, 2)]
        dual = [Stratum("a_d", SYM3_CORANK1, 4), Stratum("b_d", SYM3_CORANK2, 2)]
        pair = StratifiedPair(6, primal, dual, [(0, 1), (1, 0)])
        with pytest.raises(InconsistentSystem, match="primal\\[0\\] 'a'"):
            euler_table(pair)

    def test_duplicate_classes_are_rank_deficient(self):
        dup = ClassPoly.monomial(3, 4)
        primal = [
            Stratum("open", ClassPoly([0, 2, 4, 2], 4), 2),
            Stratum("pt_a", dup, 0),
            Stratum("pt_b", dup, 0),
        ]
        dual = [Stratum("conic", ClassPoly([0, 0, 2, 2], 4), 1)]
        pair = StratifiedPair(4, primal, dual, [(0, 0)])
        with pytest.raises(NonUniqueSolution):
            euler_table(pair)

    def test_fractional_solution_is_rejected(self):
        # rigged so the unique rational solution is 1/2
        primal = [
            Stratum("open", ClassPoly([0, 2, 4, 2], 4), 2),
            Stratum("fat_point", ClassPoly([0, 0, 0, 2], 4), 0),
        ]
        dual = [Stratum("rigged", ClassPoly([0, -1, -1, -1], 4), 1)]
        pair = StratifiedPair(4, primal, dual, [(0, 0)])
        with pytest.raises(NonIntegerSolution):
            euler_table(pair)

    def test_wrong_parity_dims_point_at_unsigned_form(self):
        # flipping the parity of the declared dimension on one side only
        # makes the signed system inconsistent; the solver should notice the
        # unsigned one would have worked and say so
        primal = [
            Stratum("corank1", SYM3_CORANK1, 5),  # true class dim is 4
            Stratum("corank2", SYM3_CORANK2, 3),  # true class dim is 2
        ]
        dual = [
            Stratum("corank1_d", SYM3_CORANK1, 4),
            Stratum("corank2_d", SYM3_CORANK2, 2),
        ]
        pair = StratifiedPair(6, primal, dual, [(0, 1), (1, 0)])
        with pytest.raises(InconsistentSystem, match="parity"):
            euler_table(pair)

    def test_fault_in_unsigned_retry_propagates(self, monkeypatch):
        # only a solver failure of the unsigned system falls back to the
        # original InconsistentSystem; any other error surfaces as it is
        signed = strata._signed_system

        def unsigned_fails(pair, inv, r, p, signs=True):
            if not signs:
                raise TypeError("fault in the unsigned system")
            return signed(pair, inv, r, p)

        monkeypatch.setattr(strata, "_signed_system", unsigned_fails)
        bad = ClassPoly([0, 3, 9, 10, 6, 4], 6)  # corrupted top coefficient
        primal = [Stratum("a", bad, 4), Stratum("b", SYM3_CORANK2, 2)]
        dual = [Stratum("a_d", SYM3_CORANK1, 4), Stratum("b_d", SYM3_CORANK2, 2)]
        pair = StratifiedPair(6, primal, dual, [(0, 1), (1, 0)])
        with pytest.raises(TypeError, match="fault in the unsigned system"):
            euler_table(pair)


class TestEulerTable:
    def test_symmetric_fixture(self):
        table = euler_table(sym3_pair())
        assert table.primal == ((1, 1, 1), (0, 1, 0), (0, 0, 1))
        assert table.dual == ((1, 1, 1), (0, 1, 0), (0, 0, 1))
        assert table.origin == (1, 1, 1)

    def test_diagonal_is_one(self):
        table = euler_table(sym3_pair())
        for r, row in enumerate(table.primal):
            assert row[r] == 1

    def test_disjoint_smooth_linear_strata_give_identity(self):
        # a plane and a far point in P^5; duals are the annihilator spaces
        primal = [
            Stratum("plane", csm_linear_space(2, 6), 2),
            Stratum("point", csm_linear_space(0, 6), 0),
        ]
        dual = [
            Stratum("point_dual", csm_linear_space(4, 6), 4),
            Stratum("plane_dual", csm_linear_space(2, 6), 2),
        ]
        pair = StratifiedPair(6, primal, dual, [(0, 1), (1, 0)])
        table = euler_table(pair)
        assert table.primal == ((1, 0), (0, 1))
        assert table.dual == ((1, 0), (0, 1))

    def test_linear_flag_of_twenty_strata(self):
        # Every closure is a linear space, so every obstruction is 1.  At
        # N = 128 the low powers of H vanish on all but the largest strata:
        # each system has the row shape of real inputs, 128 equations in 19
        # unknowns.
        m = 20
        table = euler_table(linear_flag_pair(128, [6 * k + 1 for k in range(m)]))
        ones = tuple((0,) * r + (1,) * (m - r) for r in range(m))
        assert table.primal == ones
        assert table.dual == ones
        assert table.origin == (1,) * m

    def test_quadric_cone_table(self):
        table = euler_table(quadric_cone_pair())
        assert table.primal == ((1, 0), (0, 1))
        assert table.origin == (0, 1)

    def test_unfillable_row_is_an_error(self):
        # an unpaired non-deepest stratum whose strata do not sum to the
        # ambient class leaves the row undetermined
        primal = [
            Stratum("b", SYM3_CORANK1, 4),
            Stratum("c", SYM3_CORANK2, 2),
        ]
        dual = [Stratum("c_d", SYM3_CORANK2, 2)]
        pair = StratifiedPair(6, primal, dual, [])
        with pytest.raises(ValueError, match="cannot be inferred"):
            euler_table(pair)

    def test_unpaired_deepest_dual_stratum(self):
        # the quadric cone with its sides swapped: the vertex is now the
        # deepest dual stratum, and nothing pairs with it
        cone = quadric_cone_pair()
        pair = StratifiedPair(4, cone.dual, cone.primal, [(0, 0)])
        table = euler_table(pair)
        assert table.dual == ((1, 0), (0, 1))
        fills = [d for d in table.diagnostics if d["method"] != "solved"]
        assert fills == [
            {
                "system": "dual[1] 'vertex'",
                "unknowns": 0,
                "equations": 0,
                "residual": "exact",
                "method": "deepest stratum",
            }
        ]

    def test_unfillable_dual_row_is_an_error(self):
        # the mirror of test_unfillable_row_is_an_error on the dual side
        primal = [Stratum("c", SYM3_CORANK2, 2)]
        dual = [
            Stratum("b_d", SYM3_CORANK1, 4),
            Stratum("c_d", SYM3_CORANK2, 2),
        ]
        pair = StratifiedPair(6, primal, dual, [])
        with pytest.raises(ValueError, match="dual stratum 'b_d' .*cannot be inferred"):
            euler_table(pair)

    def test_diagnostics_present(self):
        table = euler_table(sym3_pair())
        methods = {d["method"] for d in table.diagnostics if "method" in d}
        assert methods == {"solved", "smooth closure"}
        cone = euler_table(quadric_cone_pair())
        cone_methods = {d["method"] for d in cone.diagnostics if "method" in d}
        assert cone_methods == {"solved", "deepest stratum"}


class TestDualitySymmetry:
    def test_swapping_sides_transposes(self):
        pair = sym3_pair()
        swapped = StratifiedPair(
            6, pair.dual, pair.primal, [(p, r) for r, p in pair.pairing]
        )
        t1 = euler_table(pair)
        t2 = euler_table(swapped)
        assert t1.primal == t2.dual
        assert t1.dual == t2.primal

    @pytest.mark.parametrize("build", SOLVED_PAIRS.values(), ids=SOLVED_PAIRS.keys())
    def test_involution_consistency(self, build):
        # the transform exchanges the Chern-Mather classes of paired closures
        pair = build()
        table = euler_table(pair)
        for r, p in pair.pairing:
            cm_p, cm_d = table.chern_mather_primal[r], table.chern_mather_dual[p]
            assert involute(cm_p.signed(), pair.ambient - 1) == cm_d.signed()


class TestChernMather:
    def test_weighted_sum(self):
        table = euler_table(quadric_cone_pair())
        assert table.chern_mather_primal[0] == ClassPoly([0, 2, 4, 2], 4)

    def test_single_stratum_is_its_own_class(self):
        table = euler_table(quadric_cone_pair())
        assert table.chern_mather_primal[1] == ClassPoly.monomial(3, 4)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            chern_mather(quadric_cone_pair().primal, (1,))


class TestEuAtOrigin:
    def test_symmetric_fixture(self):
        assert euler_table(sym3_pair()).origin[1] == 1

    def test_projective_line_in_p1(self):
        pair = StratifiedPair(
            2,
            [Stratum("line", ClassPoly([1, 2]), 1)],
            [Stratum("line_d", ClassPoly([1, 2]), 1)],
            [],
        )
        # cone over P^1 inside C^2 is the smooth plane
        assert euler_table(pair).origin == (1,)

    def test_whole_space(self):
        # cone over all of P^5 is C^6
        pair = sym3_pair()
        table = euler_table(pair)
        assert table.origin[0] == 1


class TestValidation:
    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="modulus"):
            StratifiedPair(
                5,
                [Stratum("a", SYM3_OPEN, 5)],
                [Stratum("b", SYM3_OPEN, 5)],
                [],
            )

    def test_zero_class_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            Stratum("z", ClassPoly.zero(4), 0)

    def test_reflectivity_chain(self):
        # pairing deeper primal strata to smaller duals is not reflective
        primal = [
            Stratum("a", SYM3_CORANK1, 4),
            Stratum("b", SYM3_CORANK2, 2),
        ]
        dual = [
            Stratum("a_d", SYM3_CORANK1, 4),
            Stratum("b_d", SYM3_CORANK2, 2),
        ]
        with pytest.raises(ValueError, match="reflective"):
            StratifiedPair(6, primal, dual, [(0, 0), (1, 1)])

    def test_pairing_range_and_duplicates(self):
        primal = [Stratum("a", SYM3_CORANK1, 4)]
        dual = [Stratum("b", SYM3_CORANK2, 2)]
        with pytest.raises(ValueError, match="out of range"):
            StratifiedPair(6, primal, dual, [(0, 5)])
        primal2 = [Stratum("a", SYM3_CORANK1, 4), Stratum("c", SYM3_CORANK2, 2)]
        with pytest.raises(ValueError, match="repeats"):
            StratifiedPair(6, primal2, dual, [(0, 0), (1, 0)])

    def test_strata_resorted_by_dimension(self):
        # supplied deepest-first; the pair re-sorts and remaps the pairing
        primal = [
            Stratum("corank2", SYM3_CORANK2, 2),
            Stratum("corank1", SYM3_CORANK1, 4),
        ]
        dual = [
            Stratum("corank1_d", SYM3_CORANK1, 4),
            Stratum("corank2_d", SYM3_CORANK2, 2),
        ]
        pair = StratifiedPair(6, primal, dual, [(1, 1), (0, 0)])
        assert [s.name for s in pair.primal] == ["corank1", "corank2"]
        assert pair.pairing == ((0, 1), (1, 0))
        assert euler_table(pair).primal[0] == (1, 0)

    @pytest.mark.parametrize("dim", [6, 1000001])
    def test_dimension_above_ambient_rejected(self, dim):
        # P^5 holds no stratum of dimension 6 or more, on either side
        big = Stratum("big", SYM3_CORANK1, dim)
        fine = [Stratum("fine", SYM3_CORANK1, 4)]
        with pytest.raises(ValueError, match=f"primal stratum 'big' has dimension {dim}"):
            StratifiedPair(6, [big], fine, [])
        with pytest.raises(ValueError, match=f"dual stratum 'big' has dimension {dim}"):
            StratifiedPair(6, fine, [big], [])
        assert StratifiedPair(6, [Stratum("top", SYM3_OPEN, 5)], fine, []).primal[0].dim == 5

    def test_value_classes_are_immutable_values(self):
        stratum = Stratum(name="a", csm=SYM3_CORANK1, dim=4)
        pair = StratifiedPair(ambient=6, primal=[stratum], dual=[stratum], pairing=[])
        table = EulerTable(((1,),), ((1,),), (1,), (SYM3_CORANK1,), (SYM3_CORANK1,))
        spec = quadric.QuadricSpec(r=3, n=4)
        assert stratum == Stratum("a", ClassPoly(SYM3_CORANK1.coeffs), 4)
        assert pair == StratifiedPair(6, (stratum,), (stratum,), ())
        assert hash(spec) == hash(quadric.QuadricSpec(4, 3))
        assert table.diagnostics == ()
        for value, field in ((stratum, "dim"), (pair, "ambient"), (table, "origin"), (spec, "n")):
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
            with pytest.raises(AttributeError):
                value.extra = 0

    def test_dim_notes(self):
        s = Stratum("odd", SYM3_CORANK1, 6)
        assert "declared dimension 6" in s.dim_note()
        assert Stratum("fine", SYM3_CORANK1, 4).dim_note() is None


class TestJsonInterchange:
    def test_fixture_file_roundtrip(self):
        data = json.loads((DATA / "symmetric_3x3.json").read_text())
        pair = StratifiedPair.from_dict(data)
        assert pair.ambient == 6
        table = euler_table(pair)
        assert table.primal[1] == (0, 1, 0)
        assert table.origin == (1, 1, 1)
        again = StratifiedPair.from_dict(pair.to_dict())
        assert euler_table(again).primal == table.primal

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("N"),
            lambda d: d.__setitem__("N", "six"),
            lambda d: d.__setitem__("primal", []),
            lambda d: d["primal"][0].pop("dim"),
            lambda d: d["primal"][0].__setitem__("csm", [0, "x"]),
            lambda d: d.__setitem__("pairing", [[1]]),
            lambda d: d.__setitem__("pairing", "nope"),
        ],
    )
    def test_schema_violations(self, mutate):
        data = json.loads((DATA / "symmetric_3x3.json").read_text())
        mutate(data)
        with pytest.raises(ValueError):
            StratifiedPair.from_dict(data)
