"""Catalog construction, family instantiation, and its strict validation."""

import pytest

from qbracelet.claims import (
    CongruenceClaim,
    InstantiationError,
    SelectionIssue,
    VacuousFamilyError,
    claim_sort_key,
    default_catalog,
    families,
    resolve_selection,
)
from qbracelet.products import ProductSpec
from qbracelet.sources import euler_source, partition_source, product_source
from qbracelet.theta import PrimeContext
from qbracelet.verify import RunConfig, verify


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
        [report] = verify([by_id[cid]], RunConfig(n_max=n_max))
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
        {"kind": "vanish"},
        {"kind": "series"},
        {"rhs_source": euler_source(1)},
        {"modulus": None},
        {"modulus": 1},
        {"kind": "identity", "rhs_source": euler_source(1)},
        {"kind": "series", "rhs_source": euler_source(1), "modulus": 0},
        {"step": 0},
        {"residue": -1},
        {"default_n_max": -1},
    ],
    ids=[
        "unknown-kind", "series-without-rhs", "vanishing-with-rhs",
        "vanishing-without-modulus", "modulus-1", "identity-with-modulus",
        "series-modulus-0", "step-0", "negative-residue", "negative-n-max",
    ],
)
def test_malformed_claim_is_rejected(kw):
    fields = dict(claim_id="X1", kind="vanishing", source=partition_source(),
                  step=5, residue=4, modulus=5)
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
