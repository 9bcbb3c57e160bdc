"""Catalog construction, family instantiation, and its strict validation."""

import sys

import pytest

from qbracelet.claims import (
    CongruenceClaim,
    InstantiationError,
    SelectionIssue,
    VacuousFamilyError,
    claim_sort_key,
    default_catalog,
    families,
    printable,
    resolve_selection,
)
from qbracelet.oracles import is_prime, legendre_symbol
from qbracelet.products import ProductSpec
from qbracelet.sources import euler_source, partition_source, product_source
from qbracelet.theta import PrimeContext
from qbracelet.verify import verify


def test_builtin_catalog_shape():
    fams = families()
    assert list(fams) == [f"C{i}" for i in range(1, 21)]
    assert all(fam.family_id == fid for fid, fam in fams.items())
    ids = {c.claim_id for c in default_catalog()}
    # families without parameters have one claim under the bare family id
    for fid in ("C1", "C7", "C8", "C9"):
        assert fams[fid].param_names == ()
        assert [c.claim_id for c in fams[fid].default_instances()] == [fid]
    assert {"C1", "C7", "C8", "C9", "C6[B=6]", "C6[B=8]", "C5[k=5]",
            "C20[m=11]"} <= ids


def test_catalog_invariants():
    for claim in default_catalog():
        if claim.kind == "identity":
            assert claim.modulus is None
            continue
        assert claim.modulus >= 2
        assert claim.step >= 1
        assert 0 <= claim.residue < claim.step


def test_instantiate_c15_example():
    claim = families()["C15"].instantiate(p=5, r=2, a=1, i=1)
    assert claim.claim_id == "C15[p=5,r=2,a=1,i=1]"
    assert claim.source.key() == "bracelet:25"
    assert (claim.step, claim.residue) == (25, 7)
    assert claim.modulus == 5


def test_instantiate_c16_example():
    claim = families()["C16"].instantiate(p=5, r=3, a=1, j=1)
    assert claim.source.key() == "bracelet:125"
    assert (claim.step, claim.residue) == (125, 27)
    assert claim.modulus == 5
    # 12*2+1 = 25 is 0 mod 5, not a QNR
    with pytest.raises(InstantiationError):
        families()["C16"].instantiate(p=5, r=3, a=1, j=2)


def test_instantiate_c16_vacuous_for_small_r():
    with pytest.raises(VacuousFamilyError):
        families()["C16"].instantiate(p=5, r=1, a=1, j=1)
    with pytest.raises(VacuousFamilyError):
        families()["C16"].instantiate(p=5, r=2, a=1, j=1)


def test_instantiate_c15_vacuous_r1_but_range_error_otherwise():
    with pytest.raises(VacuousFamilyError):
        families()["C15"].instantiate(p=5, r=1, a=1, i=1)
    with pytest.raises(InstantiationError):
        families()["C15"].instantiate(p=5, r=2, a=2, i=1)


def test_instantiate_c14_example():
    claim = families()["C14"].instantiate(p=5, r=1, a=1)
    assert claim.kind == "series"
    assert (claim.step, claim.residue) == (5, 2)
    assert claim.rhs_sign == -1  # epsilon_5 = -1
    assert claim.rhs_source.key() == "product:-1,10,10,1;-1,2,2,-1"
    assert claim.claim_id == "C14[p=5,r=1,a=1]"
    assert claim.params == (("p", 5), ("r", 1), ("a", 1))  # param_names order


def test_instantiate_c14_exponent_bookkeeping():
    fam = families()["C14"]
    # r odd, alpha at the top of the range: denominator collapses to (q^2;q^2)
    top = fam.instantiate(p=5, r=3, a=2)
    assert top.rhs_source.key() == "product:-1,10,10,1;-1,2,2,-1"
    mid = fam.instantiate(p=5, r=3, a=1)
    assert mid.rhs_source.key() == "product:-1,10,10,1;-1,50,50,-1"
    with pytest.raises(InstantiationError):
        fam.instantiate(p=5, r=3, a=3)


def test_instantiate_c12_paper_instance():
    claim = families()["C12"].instantiate(p=17, a=1, i=6)
    assert (claim.step, claim.residue) == (11560, 7452)
    assert claim.modulus == 2
    # p = 13 has (-10/13) = +1, so the family does not apply
    with pytest.raises(InstantiationError):
        families()["C12"].instantiate(p=13, a=1, i=1)


def test_instantiate_c18():
    claim = families()["C18"].instantiate(p=7, a=1)
    assert (claim.step, claim.residue) == (98, 74)
    assert claim.modulus == 7
    with pytest.raises(InstantiationError):
        families()["C18"].instantiate(p=13, a=1)


def test_instantiate_c19_guard():
    # C19 is C14 at r = 2a: its right side is the constant epsilon_p^a, so
    # the n = 0 coefficient is checked as well as the vanishing ones
    claim = families()["C19"].instantiate(p=5, a=1)
    assert (claim.step, claim.residue) == (5, 2)
    assert claim.kind == "series"
    assert claim.rhs_source == product_source(ProductSpec())
    assert claim.rhs_sign == PrimeContext(5).epsilon == -1
    assert families()["C19"].instantiate(p=5, a=2).rhs_sign == 1
    assert families()["C19"].instantiate(p=11, a=1).rhs_sign == 1


def test_instantiate_rejects_wrong_parameter_names():
    with pytest.raises(InstantiationError):
        families()["C19"].instantiate(p=5, alpha=1)


def test_instantiation_is_deterministic():
    fam = families()["C15"]
    a = fam.instantiate(p=5, r=2, a=1, i=3)
    b = fam.instantiate(p=5, r=2, a=1, i=3)
    assert a == b
    assert a.claim_id == b.claim_id


def test_large_parameters_can_push_residue_past_step():
    # the theorem statement allows i up to p-1, where the offset outgrows the
    # step; the claim keeps the raw progression and the engine indexes into
    # the full series directly
    claim = families()["C10"].instantiate(p=17, a=1, i=16)
    assert claim.step == 1156
    assert claim.residue == 1425
    assert claim.residue > claim.step


def test_required_truncation():
    # the order a claim needs to be checked for n <= n_max is step*n_max+residue
    by_id = {c.claim_id: c for c in default_catalog()}
    for cid, n_max, order in (
        ("C6[B=6]", 50, 506), ("C20[m=5]", 0, 4), ("C12[p=17,a=1,i=6]", 2, 30572),
    ):
        [report] = verify([by_id[cid]], n_max=n_max)
        assert report.status == "pass"
        assert report.truncation == order


def test_resolve_selection():
    claims, issues = resolve_selection(["C6", "C15[p=5,r=2,a=1,i=2]"])
    assert sorted(c.claim_id for c in claims) == [
        "C15[p=5,r=2,a=1,i=2]", "C6[B=6]", "C6[B=8]",
    ]
    assert issues == []


def test_resolve_selection_reports_vacuous_and_errors():
    claims, issues = resolve_selection(
        ["C16[p=5,r=1,a=1,j=1]", "C99", "C15[p=4,r=2,a=1,i=1]", "garbage"]
    )
    assert claims == []
    statuses = {i.claim_id: i.status for i in issues}
    assert statuses["C16[p=5,r=1,a=1,j=1]"] == "vacuous"
    assert statuses["C99"] == "error"
    assert statuses["C15[p=4,r=2,a=1,i=1]"] == "error"
    assert statuses["garbage"] == "error"


@pytest.mark.parametrize(
    "text, message",
    [
        ("C6[B=7]", "B must be 6 or 8, got 7"),
        ("C5[k=13]", "k must be 5, 7 or 11, got 13"),
        ("C20[m=13]", "m must be 5, 7 or 11, got 13"),
        ("C1[x=1]", "C1 takes no parameters, got ('x',)"),
        ("C99[x=1]", "unknown claim id 'C99'"),
    ],
)
def test_resolve_selection_names_what_a_family_accepts(text, message):
    claims, issues = resolve_selection([text])
    assert claims == []
    assert issues == [SelectionIssue(text, "error", message)]


def test_a_tabulated_instance_is_the_default_instance():
    [bare_b6, _] = resolve_selection(["C6"])[0]
    assert resolve_selection(["C6[B=6]"]) == ([bare_b6], [])
    assert bare_b6 == families()["C6"].instantiate(B=6)
    assert bare_b6.claim_id == "C6[B=6]"
    assert bare_b6.params == (("B", 6),)


def test_prime_parameters_beyond_the_primality_bound_are_rejected():
    # 2^61 - 1 is within the exact range of the primality test; past it is an error
    assert families()["C2"].instantiate(p=2**61 - 1, r=1).modulus == 2**61 - 1
    with pytest.raises(InstantiationError, match="primality is only decided below"):
        families()["C2"].instantiate(p=3_317_044_064_679_887_385_961_983, r=1)


def test_resolve_selection_rejects_a_repeated_parameter():
    claims, issues = resolve_selection(["C14[p=5,r=3,a=1,a=2]"])
    assert claims == []
    assert [(i.status, i.message) for i in issues] == [
        ("error", "parameter 'a' given twice in 'C14[p=5,r=3,a=1,a=2]'")
    ]


@pytest.mark.parametrize(
    "kw",
    [
        {"modulus": None},
        {"modulus": 1},
        {"rhs_source": euler_source(1), "modulus": 0},
        {"step": 0},
        {"residue": -1},
        {"default_n_max": -1},
    ],
    ids=[
        "vanishing-without-modulus", "modulus-1", "series-modulus-0", "step-0",
        "negative-residue", "negative-n-max",
    ],
)
def test_malformed_claim_is_rejected(kw):
    fields = dict(claim_id="X1", source=partition_source(), step=5, residue=4, modulus=5)
    with pytest.raises(ValueError, match="X1: "):
        CongruenceClaim(**{**fields, **kw})


def test_resolve_selection_family_defaults_and_dedup():
    claims, issues = resolve_selection(["C18", "C18[p=7,a=1]"])
    assert issues == []
    ids = [c.claim_id for c in claims]
    assert len(ids) == len(set(ids)) == 3


def test_default_catalog_is_sorted_and_unique():
    catalog = default_catalog()
    ids = [c.claim_id for c in catalog]
    assert len(ids) == len(set(ids))
    assert ids == [c.claim_id for c in sorted(catalog, key=claim_sort_key)]


def test_describe_strings():
    by_id = {c.claim_id: c for c in default_catalog()}
    assert by_id["C6[B=6]"].describe() == "B_5(10n+6) ≡ 0 (mod 2)"
    assert by_id["C7"].describe() == "Σ B_5(10n+2) q^n ≡ Σ b_5(n) q^n (mod 2)"
    assert "(q^2;q^2)oo" in by_id["C8"].describe()
    assert by_id["C14[p=5,r=1,a=1]"].describe().startswith("Σ B_5(5n+2) q^n ≡ -")


def test_claim_kind_is_read_from_modulus_and_right_side():
    with pytest.raises(TypeError, match="kind"):
        CongruenceClaim("X1", partition_source(), 5, 4, 5, kind="vanishing")
    by_id = {c.claim_id: c for c in default_catalog()}
    assert by_id["C9"].kind == "identity"
    assert by_id["C7"].kind == "series"
    assert by_id["C6[B=6]"].kind == "vanishing"


# C12 and C13 are C10 and C11 carried by C7; these are the paper's closed
# forms, transcribed apart from the derivation.  C13 variant v is
# B_5(8·5^{2a+e} n + (c·5^{2a+e-1}+1)/3) with (e, c) from this table.
C13_CLOSED_FORMS = {1: (0, 31), 2: (0, 79), 3: (1, 83), 4: (1, 107)}


def _exact_third(num):
    assert num % 3 == 0
    return num // 3


def test_c12_matches_its_closed_form():
    checked = 0
    for p in filter(is_prime, range(17, 104)):
        if legendre_symbol(-10, p) != -1:
            continue
        for a in range(1, 4):
            for i in range(1, p):
                claim = families()["C12"].instantiate(p=p, a=a, i=i)
                top = p ** (2 * a)
                assert claim.step == 40 * top
                assert claim.residue == _exact_third(5 * (24 * i + 7 * p) * top // p + 1)
                assert (claim.source.key(), claim.modulus, claim.kind) == (
                    "bracelet:5", 2, "vanishing",
                )
                assert claim.default_n_max == 2
                checked += 1
    assert checked > 1000


def test_c13_matches_its_closed_form():
    for v, (e, c) in C13_CLOSED_FORMS.items():
        for a in range(1, 6):
            claim = families()["C13"].instantiate(v=v, a=a)
            top = 5 ** (2 * a + e)
            assert claim.step == 8 * top
            assert claim.residue == _exact_third(c * top // 5 + 1)
            assert (claim.source.key(), claim.modulus, claim.kind) == (
                "bracelet:5", 2, "vanishing",
            )
            assert claim.default_n_max == 20


def test_c19_matches_its_closed_form_and_c14_at_r_2a():
    for p in filter(is_prime, range(5, 24)):
        # epsilon_p = (-1)^t for the integral branch t of (±p-1)/6
        t = (p - 1) // 6 if p % 6 == 1 else (-p - 1) // 6
        for a in range(1, 4):
            claim = families()["C19"].instantiate(p=p, a=a)
            assert claim.source.key() == f"bracelet:{p ** (2 * a)}"
            assert claim.step == p ** (2 * a - 1)
            assert claim.residue * 12 == p ** (2 * a) - 1
            assert claim.rhs_sign == (-1) ** (t * a)
            assert (claim.modulus, claim.kind) == (p, "series")
            assert claim.rhs_source.key() == "product:"
            assert claim.default_n_max == 300
            c14 = families()["C14"].instantiate(p=p, r=2 * a, a=a)
            # one cache entry: C14's right side at r = 2a is the empty product
            assert claim.rhs_source.identity() == c14.rhs_source.identity()


@pytest.mark.parametrize(
    "text, message",
    [
        ("C12[p=7,a=1,i=1]", "(-10/7) must be -1 for this family"),
        ("C13[v=5,a=1]", "variant must be 1..4, got 5"),
        ("C13[v=1,a=0]", "alpha must be >= 1, got 0"),
        ("C19[p=4,a=1]", "p must be a prime >= 5, got 4"),
        ("C19[p=5,a=0]", "alpha must be >= 1, got 0"),
    ],
)
def test_derived_families_refuse_as_before(text, message):
    assert resolve_selection([text]) == ([], [SelectionIssue(text, "error", message)])


def test_power_guard_without_int_str_limit_function(monkeypatch):
    # Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert len(default_catalog()) == 46
    text = "C2[p=5,r=100000]"
    message = "5^100000 has more than 4300 digits"
    assert resolve_selection([text]) == ([], [SelectionIssue(text, "error", message)])


def test_printable_agrees_with_str_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for n in (10**limit - 1, 10**limit, -(10**limit), 2**14284, 2**14285, 0):
        try:
            str(n)
        except ValueError:
            assert not printable(n)
        else:
            assert printable(n)
