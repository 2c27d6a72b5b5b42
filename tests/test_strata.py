import json
import random
from functools import partial
from math import comb
from pathlib import Path

import pytest

from chernmather import detvar, quadric, strata
from chernmather.cli import main as cli_main
from chernmather.classpoly import (
    ClassPoly,
    chern_B,
    csm_linear_space,
    involute,
    involute_all,
)
from chernmather.linsolve import (
    InconsistentSystem,
    NonIntegerSolution,
    NonUniqueSolution,
)
from chernmather.strata import (
    EulerTable,
    StratifiedPair,
    Stratum,
    checked_table,
    chern_mather,
    euler_table,
)

from oracles import chern_mather_by_columns, cone, signed, signed_system

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
        Stratum("vertex", ClassPoly([0, 0, 0, 1]), 0),
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
        dup = ClassPoly([0, 0, 0, 1])
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
        dual = [Stratum("rigged", ClassPoly([0, 1, 1, 1], 4), 2)]
        pair = StratifiedPair(4, primal, dual, [(0, 0)])
        with pytest.raises(NonIntegerSolution):
            euler_table(pair)

    def test_wrong_parity_dims_rejected(self, capsys, tmp_path):
        # each primal class declared one dimension above the one it fixes,
        # which would flip the parity signs of both systems: the strata are
        # rejected where they are built, and a file with them exits 2
        for name, csm, dim in (("corank1", SYM3_CORANK1, 4), ("corank2", SYM3_CORANK2, 2)):
            message = (
                f"^stratum '{name}' declares dimension {dim + 1}, "
                f"but its class has dimension {dim}$"
            )
            with pytest.raises(ValueError, match=message):
                Stratum(name, csm, dim + 1)
        side = [
            {"name": "corank1", "dim": 4, "csm": SYM3_CORANK1.to_list()},
            {"name": "corank2", "dim": 2, "csm": SYM3_CORANK2.to_list()},
        ]
        flipped = [{**s, "dim": s["dim"] + 1} for s in side]
        path = tmp_path / "parity.json"
        data = {"N": 6, "primal": flipped, "dual": side, "pairing": [[0, 1], [1, 0]]}
        path.write_text(json.dumps(data))
        assert cli_main(["solve", str(path)]) == 2
        assert capsys.readouterr() == (
            "",
            "error: stratum 'corank1' declares dimension 5, but its class has dimension 4\n",
        )


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
            assert involute(signed(cm_p), pair.ambient - 1) == signed(cm_d)


# The closed forms of the quadric cone pair, every field of its table
CONE_FORMS = {
    "primal": ((1, 0), (0, 1)),
    "dual": ((1,),),
    "origin": (0, 1),
    "chern_mather_primal": (ClassPoly([0, 2, 4, 2]), ClassPoly([0, 0, 0, 1])),
    "chern_mather_dual": (ClassPoly([0, 0, 2, 2]),),
}


def _wrong(entry):
    """An entry of a table field, changed: a row in its last place, a class
    in its top coefficient, a number by one."""
    if isinstance(entry, tuple):
        return (*entry[:-1], entry[-1] + 1)
    if isinstance(entry, ClassPoly):
        return entry + ClassPoly([0] * (entry.modulus - 1) + [1])
    return entry + 1


def _differs(field, i):
    return rf"^solved {field}\[{i}\] differs from its closed form$"


class TestCheckedTable:
    def test_closed_forms_return_the_solved_table(self):
        pair = quadric_cone_pair()
        assert checked_table(pair, **CONE_FORMS) == euler_table(pair)
        assert checked_table(pair) == euler_table(pair)

    @pytest.mark.parametrize(
        "field, i", [(f, i) for f, forms in CONE_FORMS.items() for i in range(len(forms))]
    )
    def test_wrong_entry_names_field_and_index(self, field, i):
        forms = list(CONE_FORMS[field])
        forms[i] = _wrong(forms[i])
        with pytest.raises(ArithmeticError, match=_differs(field, i)):
            checked_table(quadric_cone_pair(), **{**CONE_FORMS, field: tuple(forms)})

    @pytest.mark.parametrize("field", CONE_FORMS)
    def test_closed_form_of_another_length_fails(self, field):
        forms = CONE_FORMS[field]
        with pytest.raises(ArithmeticError, match=_differs(field, len(forms) - 1)):
            checked_table(quadric_cone_pair(), **{field: forms[:-1]})
        with pytest.raises(ArithmeticError, match=_differs(field, len(forms))):
            checked_table(quadric_cone_pair(), **{field: forms + forms[-1:]})

    def test_quadric_origin_column_is_checked(self, monkeypatch, capsys):
        # the cone points of the quadric and of its singular locus: only the
        # origin column is corrupted, every other field is the solver's
        spec = quadric.QuadricSpec(4, 3)
        monkeypatch.setattr(
            strata, "euler_table", lambda pair: euler_table(pair)._replace(origin=(1, 1))
        )
        with pytest.raises(ArithmeticError, match=_differs("origin", 0)):
            quadric.cross_validate(spec, quadric.build_pair(spec))
        assert cli_main(["quadric", "--n", "4", "--rank", "3"]) == 3
        err = capsys.readouterr().err
        assert err == "error: solved origin[0] differs from its closed form\n"


class TestChernMather:
    def test_weighted_sum(self):
        table = euler_table(quadric_cone_pair())
        assert table.chern_mather_primal[0] == ClassPoly([0, 2, 4, 2], 4)

    def test_single_stratum_is_its_own_class(self):
        table = euler_table(quadric_cone_pair())
        assert table.chern_mather_primal[1] == ClassPoly([0, 0, 0, 1])

    def test_length_guard(self):
        with pytest.raises(ValueError):
            chern_mather(quadric_cone_pair().primal, (1,))


def random_side(rng, modulus, prefix):
    """One to four strata of random nonzero classes, each of its own dimension."""
    side = []
    for i in range(rng.randint(1, 4)):
        coeffs = [rng.choice((0, rng.randint(-40, 40))) for _ in range(modulus)]
        coeffs[rng.randrange(modulus)] = rng.choice((-1, 1)) * rng.randint(1, 2**70)
        csm = ClassPoly(coeffs, modulus)
        side.append(Stratum(f"{prefix}{i}", csm, csm.dim))
    return side


class TestSystemOracle:
    """`_signed_system` against the row-by-row builder in the oracles."""

    def test_random_small_pairs(self):
        rng = random.Random(29)
        for _ in range(60):
            modulus = rng.randint(2, 9)
            pair = StratifiedPair(
                modulus, random_side(rng, modulus, "x"), random_side(rng, modulus, "y"), []
            )
            inv = involute_all([s.csm for s in pair.primal], modulus - 1)
            for r in range(len(pair.primal)):
                for p in range(len(pair.dual)):
                    rows, rhs = strata._signed_system(pair, inv, r, p)
                    want_rows, want_rhs = signed_system(pair, inv, r, p)
                    assert list(map(list, rows)) == want_rows
                    assert list(rhs) == want_rhs

    def test_no_unknowns_keeps_every_equation(self):
        pair = sym3_pair()
        inv = involute_all([s.csm for s in pair.primal], 5)
        rows, rhs = strata._signed_system(pair, inv, 2, 2)
        assert list(map(list, rows)) == [[]] * 6 == signed_system(pair, inv, 2, 2)[0]
        assert list(rhs) == signed_system(pair, inv, 2, 2)[1]


class TestChernMatherOracle:
    """`chern_mather` against the column-by-column sum in the oracles."""

    WEIGHTS = (0, 1, -1, 2, -3, 2**64 + 1, -(2**70) - 5)

    def test_random_weights(self):
        rng = random.Random(29)
        for _ in range(200):
            modulus = rng.randint(1, 9)
            side = random_side(rng, modulus, "s")
            alpha = [rng.choice(self.WEIGHTS) for _ in side]
            got = chern_mather(side, alpha)
            assert got == chern_mather_by_columns(side, alpha)
            assert got.modulus == modulus

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_every_weight_alone(self, weight):
        side = sym3_pair().primal
        for alpha in ((weight, 0, 0), (0, weight, weight), (weight,) * 3):
            assert chern_mather(side, alpha) == chern_mather_by_columns(side, alpha)

    def test_all_weights_zero_give_the_zero_class(self):
        assert chern_mather(sym3_pair().primal, (0, 0, 0)) == ClassPoly.zero(6)


def _detvar_expected(n):
    binomial = [[comb(j, k) for j in range(n)] for k in range(n)]
    return {
        "euler_table_primal": binomial,
        "euler_table_dual": binomial,
        "origin_column": [comb(n, k) for k in range(n)],
    }


def _sym3_expected():
    table = [[1, 1, 1], [0, 1, 0], [0, 0, 1]]
    return {"euler_table_primal": table, "euler_table_dual": table, "origin_column": [1, 1, 1]}


def _flag_expected(m):
    ones = [[0] * k + [1] * (m - k) for k in range(m)]
    return {"euler_table_primal": ones, "euler_table_dual": ones, "origin_column": [1] * m}


# (base pair, its tables from closed forms, ambient N of the cone)
CONES = {
    "detvar_3_to_1024": (partial(detvar_pair, 3), partial(_detvar_expected, 3), 1024),
    "detvar_5_to_1024": (partial(detvar_pair, 5), partial(_detvar_expected, 5), 1024),
    "sym3_to_106": (sym3_pair, _sym3_expected, 106),
    # the duals of a flag do not fill P^(N-1): the cone adds a dual stratum
    "flag_3_to_64": (partial(linear_flag_pair, 30, [20, 11, 4]), partial(_flag_expected, 3), 64),
}


@pytest.mark.parametrize("base, expected, ambient", CONES.values(), ids=CONES.keys())
def test_cone_solves_to_its_table(base, expected, ambient, tmp_path, capsys):
    pair = base()
    joined, want = cone(pair, ambient - pair.ambient, expected())
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(joined.to_dict()))
    assert cli_main(["solve", str(path)]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert {key: outputs[key] for key in want} == want


def _chain_matches_per_system(pair):
    inv = involute_all([s.csm for s in pair.primal], pair.ambient - 1)
    rows = strata._chain_rows(pair, inv)
    assert rows is not None
    assert rows == [strata._solve_paired(pair, inv, r, p) for r, p in pair.pairing]


class TestChainRows:
    """`_chain_rows` against one `_solve_paired` per system."""

    def test_random_linear_flags(self):
        rng = random.Random(31)
        for _ in range(150):
            modulus = rng.randint(3, 80)
            m = rng.randint(1, min(16, modulus - 1))
            dims = rng.sample(range(modulus - 1), m)
            _chain_matches_per_system(linear_flag_pair(modulus, dims))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rank_strata(self, n):
        _chain_matches_per_system(detvar_pair(n))

    @pytest.mark.parametrize("base, expected, ambient", CONES.values(), ids=CONES.keys())
    def test_cones(self, base, expected, ambient):
        pair = base()
        _chain_matches_per_system(cone(pair, ambient - pair.ambient, expected())[0])

    def test_symmetric_fixture(self):
        _chain_matches_per_system(sym3_pair())

    def test_route(self, monkeypatch):
        def no_solve(pair, inv, r, p):
            raise RuntimeError("per-system solve")

        monkeypatch.setattr(strata, "_solve_paired", no_solve)
        table = euler_table(linear_flag_pair(40, [30, 17, 9, 2]))
        assert table.primal == tuple((0,) * k + (1,) * (4 - k) for k in range(4))
        # a singular quadric pairs its open stratum, not its deepest one
        with pytest.raises(RuntimeError, match="per-system solve"):
            euler_table(quadric.build_pair(quadric.QuadricSpec(6, 4)))

    def test_other_pairing_declines(self):
        # the two deepest strata of each side solve as the chain (1, 2),
        # (2, 1), but here primal stratum 2 is paired with dual stratum 0
        pair = sym3_pair()
        inv = involute_all([s.csm for s in pair.primal], 5)
        assert strata._chain_rows(pair._replace(pairing=((1, 2), (2, 0))), inv) is None

    def test_residual_declines(self):
        # class 1 (dimension 17, from H^22) gains a class on H^23..H^27 whose
        # transform vanishes at the dual codimensions 3, 10, 18 and 31 but not
        # everywhere: a vector from the nullspace of the 4 x 17 matrix of those
        # coefficients of the transforms of H^23..H^39.  The forward
        # substitution reads only those coefficients, the residual check all
        pair = linear_flag_pair(40, [30, 17, 9, 2])
        extra = ClassPoly([0] * 23 + [7800, 23075, 24739, 11300, 1836], 40)
        moved = involute(extra, 39).coeffs
        assert [moved[c] for c in (3, 10, 18, 31)] == [0] * 4 and any(moved)
        primal = list(pair.primal)
        primal[1] = Stratum("bad", primal[1].csm + extra, 17)
        pair = pair._replace(primal=tuple(primal))
        inv = involute_all([s.csm for s in pair.primal], 39)
        assert strata._chain_rows(pair, inv) is None
        # stratum 1 is an unknown of the system of stratum 0, solved first
        with pytest.raises(InconsistentSystem, match="primal\\[0\\] 'flag0'"):
            euler_table(pair)

    def test_inexact_division_declines(self):
        # the transform is half the dual class, so the one system has no
        # integer solution and the per-system solve says so
        half = ClassPoly([0, 0, 1, 1], 4)
        pair = StratifiedPair(
            4,
            [Stratum("x", involute(half, 3), 2)],
            [Stratum("y", ClassPoly([0, 0, 2, 2], 4), 1)],
            [(0, 0)],
        )
        assert strata._chain_rows(pair, [half]) is None
        with pytest.raises(InconsistentSystem, match="primal\\[0\\] 'x'"):
            euler_table(pair)


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
        # P^5 holds no stratum of dimension 6 or more: no class there has one
        message = f"^stratum 'big' declares dimension {dim}, but its class has dimension 4$"
        with pytest.raises(ValueError, match=message):
            Stratum("big", SYM3_CORANK1, dim)
        fine = [Stratum("fine", SYM3_CORANK1, 4)]
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
