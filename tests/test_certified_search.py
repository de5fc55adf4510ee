"""Certified curve codes are searched on their evaluation rows: differentials
against the searches on the reduced bases, which edited and descended
artifacts still take, and mutation controls for the rows each search checks.

``curves.certify`` proves C(H) = C(G)^perp and C(H) <= C(G) of the fresh
rows, the evaluation of L(G), so when the stored rows are those, the
checks of C(G) are the C(H) rows and those of C(H) the C(G) rows.  The
Hamming search of every curve artifact reads the fresh code: C(H) is the
Euclidean dual of swap(C(G)), which has the Hamming weights of C(G).
"""

import hashlib
import inspect
import json
import textwrap
from functools import cache
from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest

from agstab import artifact as artifact_mod
from agstab import linalg, symplectic
from agstab.curves import make_backend
from agstab.gf import field
from agstab.symplectic import ENUMERATION_CAP, CodeBasis, min_hamming_weight, relative_min_weight

# every curve code that tier-1 constructs: rational q <= 16, hermitian q = 2, and hermitian
# q = 4 with each gamma in GF(4)*; j = 0 (k = 0) has no search
FAMILIES = [("rational", 4, 1), ("rational", 8, 1), ("rational", 16, 1), ("hermitian", 2, 1),
            ("hermitian", 4, 1), ("hermitian", 4, 2), ("hermitian", 4, 3)]
CODES = [(kind, q, j, gamma) for kind, q, gamma in FAMILIES for j in range(1, make_backend(kind, q, gamma).max_j + 1)]


def outcome(search, *args, **kwargs):
    """What a search gives: its result, or the message of the ValueError with which it refuses."""
    try:
        return search(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("code", CODES, ids=str)
def test_the_evaluation_rows_give_the_reduced_results(code):
    art = artifact_mod.construct_artifact(*code)
    f, width, rank = art.field, art.width, len(art.c_g_rows)
    c_g, c_h = (CodeBasis.from_rows(f, rows, width) for rows in (art.c_g_rows, art.c_h_rows))
    # the checks as verify passes them: C(H) rows for C(G), C(G) rows for D = C(H)
    rows = (f, art.c_h_rows, art.c_g_rows, width)
    # every budget up to the first that ends the sweep, with a weight or a refusal
    for budget in count(1):
        want = outcome(relative_min_weight, c_g, c_h, budget=budget, mode="budget")
        assert outcome(symplectic.sweep_min_weight, *rows, budget, "budget") == want
        if isinstance(want, str) or want.status == "exact":
            break
    if f.q ** rank <= ENUMERATION_CAP:
        assert symplectic.sweep_min_weight(*rows) == relative_min_weight(c_g, c_h)
        assert symplectic.sweep_min_hamming_weight(f, art.c_h_rows, width) == min_hamming_weight(c_g)
    else:
        assert symplectic.sweep_min_hamming_weight(f, art.c_h_rows, width) is None


def eliminating(monkeypatch, art):
    """Send verify's two sweeps to the searches on the reduced stored bases: the symplectic one
    to the path of an edited or a descended artifact, the Hamming one to the search of C(G)."""
    c_g, c_h = (CodeBasis.from_rows(art.field, rows, art.width) for rows in (art.c_g_rows, art.c_h_rows))
    shim = SimpleNamespace(**vars(symplectic))  # artifact's view of the module; the module is unchanged
    shim.sweep_min_weight = (lambda field, c_checks, d_checks, width, budget, mode:
                             relative_min_weight(c_g, c_h, budget=budget, mode=mode))
    shim.sweep_min_hamming_weight = lambda field, checks, width: min_hamming_weight(c_g)
    monkeypatch.setattr(artifact_mod, "symplectic", shim)


def report_of(art, **options):
    """The verify report as the command line prints it, or the AssertionError it raises."""
    try:
        return json.dumps(artifact_mod.verify_artifact(art, **options), indent=2)
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def options_reached(art):
    """``--exact-distance``, then ``--budget b`` for b = 1, 2, .. up to the first budget that
    ends the sweep with a weight, a refusal or the empty set."""
    yield {"exact_distance": True}
    for budget in count(1):
        yield {"budget": budget}
        report = artifact_mod.verify_artifact(art, budget=budget)
        bound = next(check for check in report["checks"] if check["name"] == "distance-bound")
        if not bound["detail"].startswith("no vector of weight"):
            return


@pytest.mark.parametrize("code", [(kind, q, 0, gamma) for kind, q, gamma in FAMILIES] + CODES, ids=str)
def test_certified_reports_match_the_elimination_path(monkeypatch, code):
    art = artifact_mod.construct_artifact(*code)
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(1) or real(*args))
    for options in list(options_reached(art)):
        calls.clear()
        certified = report_of(art, **options)
        assert calls == [], f"{options}: the certified code was reduced"
        with monkeypatch.context() as m:
            eliminating(m, art)
            assert certified == report_of(art, **options), options


def _mutant(*edits):
    """``artifact.verify_artifact`` recompiled from its source with each (old, new) edit applied."""
    source = textwrap.dedent(inspect.getsource(artifact_mod.verify_artifact))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = {}
    exec(compile(source, "<mutant of artifact.verify_artifact>", "exec"), vars(artifact_mod), namespace)
    return namespace["verify_artifact"]


SWEEP = "symplectic.sweep_min_weight(f, h_rows, g_rows,"
HAMMING = "symplectic.sweep_min_hamming_weight(f, h_rows,"
MUTANTS = {
    "d-checks-from-c-h": ((SWEEP, SWEEP.replace("g_rows", "h_rows")),),
    "hamming-checks-from-c-g": ((HAMMING, HAMMING.replace("h_rows", "g_rows")),),
    "none": (),  # the control: recompiled unchanged, nothing to catch
    # no mutant either: swap permutes the coordinates, so the swapped C(H) rows check C(G),
    # which has the Hamming weights of swap(C(G)), and no report can change
    "hamming-swap-added": ((HAMMING, HAMMING.replace("h_rows", "np.roll(h_rows, n, axis=1)")),),
}


@cache
def reference_reports():
    """{(code, options): report} over every code and every option ``options_reached`` gives it."""
    return {(code, tuple(options.items())): report_of(art, **options)
            for code in CODES for art in [artifact_mod.construct_artifact(*code)] for options in options_reached(art)}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_report_differential_catches_each_mutant(monkeypatch, mutant):
    reference = reference_reports()
    monkeypatch.setattr(artifact_mod, "verify_artifact", _mutant(*MUTANTS[mutant]))
    caught = any(report_of(artifact_mod.construct_artifact(*code), **dict(options)) != want
                 for (code, options), want in reference.items())
    assert caught == (mutant in ("d-checks-from-c-h", "hamming-checks-from-c-g"))


def test_the_weight_1_refusal_at_hermitian_q16_reduces_nothing(monkeypatch):
    # the right half of weight 1 holds 2040 * 65535 rows, over the cap: the refusal rests on n, q
    # and the proved rank alone, and comes before any elimination (about 0.3 s in all)
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(1) or real(*args))
    art = artifact_mod.construct_artifact("hermitian", 16, 1)
    report = artifact_mod.verify_artifact(art, budget=1)
    assert calls == []
    assert [c for c in report["checks"] if c["status"] == "fail"] == [{
        "name": "distance-bound", "status": "fail",
        "detail": "search failed: weight 1: the right half has C(2040,1) * 65535^1 = 133691400 rows, "
                  "over the cap 16777216"}]


def test_the_exact_refusal_at_hermitian_q16_writes_the_power_it_cannot_convert(monkeypatch):
    # 256^2041 has 4916 digits, past the 4300 that an int converts to, which used to be the
    # reason ("Exceeds the limit (4300 digits) ..."): the refusal writes q^rank instead, on the
    # proved rank alone and before any elimination
    calls = []
    real = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda *args: calls.append(1) or real(*args))
    art = artifact_mod.construct_artifact("hermitian", 16, 1)
    report = artifact_mod.verify_artifact(art, exact_distance=True)
    assert calls == []
    assert [c for c in report["checks"] if c["status"] == "fail"] == [{
        "name": "distance-bound", "status": "fail",
        "detail": "search failed: q^dim = 256^2041 exceeds the enumeration cap; a weight budget is required"}]


@pytest.mark.parametrize("q, rank, dim", [
    (8, 20, str(8 ** 20)),
    (2048, 1028, str(2048 ** 1028)),  # 3405 digits: written in full, as before
    (4096, 2052, "4096^2052"),  # 7413 digits: rational q=4096 j=4
])
def test_the_refusal_writes_q_to_the_rank_only_past_the_digit_limit(q, rank, dim):
    # the sweep reads the rank off its checks: no check of C in F_q^rank, and one of D
    f = field(q.bit_length() - 1)
    checks = np.zeros((0, rank), dtype=np.uint16), np.zeros((1, rank), dtype=np.uint16)
    with pytest.raises(ValueError) as refused:
        symplectic.sweep_min_weight(f, *checks, rank)
    assert str(refused.value) == f"q^dim = {dim} exceeds the enumeration cap; a weight budget is required"


# whether verify passes, and the SHA-256 of the report it prints (json.dumps(report, indent=2) and a
# newline); budget 0 is no refusal, but sweeps no weight
REFUSED_REPORTS = {
    (("rational", 512, 4), (("budget", 1),)):
        (False, "966b9f80d2cefbb02dd22472d9e25d4a8661b72ec2774b916df548a5e3934200"),
    (("hermitian", 16, 1), (("exact_distance", True),)):
        (False, "4f55040179cd826473063a8a2145b1975dbee005eed55470d8c53993e4d6f98e"),
    (("rational", 512, 4), (("budget", 0),)):
        (True, "e5d450e2badd1e317f536d18900cb8613786ac7fdbc452c14617378def92a947"),
}


@pytest.mark.parametrize("code, options", REFUSED_REPORTS, ids=str)
def test_a_refusal_builds_no_kernel(monkeypatch, code, options):
    # rational q=512 j=4 refuses weight 1, whose right half has C(256,1) * 262143 rows, and hermitian
    # q=16 j=1 the exact distance, as q^dim = 256^2041: each before the sweep builds a kernel, which
    # would copy every check to int64; the Hamming search is not enumerated, and builds none either
    art = artifact_mod.construct_artifact(*code)

    def no_kernel(*args):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(symplectic._SyndromeSearch, "__init__", no_kernel)
    report = artifact_mod.verify_artifact(art, **dict(options))
    printed = json.dumps(report, indent=2) + "\n"
    assert (report["ok"], hashlib.sha256(printed.encode()).hexdigest()) == REFUSED_REPORTS[code, options]
    # control: a sweep that searches builds its kernel, and so fails here
    with pytest.raises(AssertionError, match="a kernel was built"):
        artifact_mod.verify_artifact(artifact_mod.construct_artifact("rational", 8, 1), exact_distance=True)
