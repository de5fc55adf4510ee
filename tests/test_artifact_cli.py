import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agstab import artifact as artifact_mod
from agstab.cli import Lcg64, main, sample_symplectic_error
from agstab.symplectic import CodeBasis, symplectic_weight


# ---------------------------------------------------------------------------
# artifact round trip
# ---------------------------------------------------------------------------

def test_round_trip_bit_exact(tmp_path):
    art = artifact_mod.construct_artifact("hermitian", 2, 1)
    path = tmp_path / "h21.json"
    artifact_mod.save(art, str(path))
    again = artifact_mod.load(str(path))
    assert np.array_equal(again.c_g_rows, art.c_g_rows)
    assert np.array_equal(again.c_h_rows, art.c_h_rows)
    assert again.places == art.places
    assert again.field == art.field
    assert artifact_mod.to_json(again) == artifact_mod.to_json(art)


def test_to_json_layout():
    # against the encoder the writer replaced: entries >= 256 (q=512), C(H) = [] at j = max_j,
    # a descended artifact (null backend and places, nested gram, basis), and d_exact set
    construct = artifact_mod.construct_artifact
    with_d_exact = construct("hermitian", 2, 1)
    with_d_exact.d_exact = 2
    arts = [construct("rational", 8, 2), construct("rational", 512, 4), construct("hermitian", 4, 5),
            construct("rational", 8, 4), artifact_mod.descend_artifact(construct("hermitian", 4, 1)),
            with_d_exact]
    for art in arts:
        expected = json.dumps(artifact_mod._document(art), indent=2, sort_keys=True, default=np.ndarray.tolist)
        assert artifact_mod.to_json(art) == expected + "\n"


# values for the places slot: a table (a non-empty rectangular list of ints in [0, 2^16)) is laid
# out by the table gather, and every other value, tables nested in it included, by json.dumps
@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": []}, [0], [[0, 1], []], (1, 2), [True, 0], [None, 1], [-1, 0, 3],
    [1 << 16, 0], [2 ** 70], [1.5, 2], ["x", "\u00e9"], {"b": {"a": [[3, 4]]}, "a": None}, 7, None, "s",
    [[1, 2], [3, 4]], [[1 << 16, 1]], [[2 ** 64, 1]], [[-1, 2 ** 63]], [[2 ** 63, 1]], [[True, 1]], [[1, 2.0]],
    [[], []], [[0], [1, 2]], [[[0]]], {"p": [[5, 0]], "q": [[5]]},
    {"a": [[5, 10], [1, 2]], "b": [[5, 10]], "c": [[1, 2]]}, [[[5, 10], [1, 2]], [[5, 10]], [[5, 10], [1, 2]]],
    [[1 << 16, 0]], [[-1, 2]],
])
def test_layout_matches_the_encoder(value):
    # to_json with ``value`` in the places slot is json.dumps of the document
    art = artifact_mod.construct_artifact("rational", 4, 1)
    art.places = value
    text = artifact_mod.to_json(art)
    expected = json.dumps(artifact_mod._document(art), indent=2, sort_keys=True, default=np.ndarray.tolist)
    assert text == expected + "\n"


@pytest.mark.parametrize("rows", [[[0]], [[3, 0, 1], [2, 2, 2]], [[65535, 9, 10]], [[1 << 16, 0]], [[-1, 2]],
                                  [[5] * 4] * 40, [], [[], []]], ids=str)
@pytest.mark.parametrize("block", [1 << 20, 16])
def test_layout_of_an_array_matches_the_encoder(monkeypatch, rows, block):
    # a small block puts each row in a gather of its own; an array that is no table (an entry
    # past 2^16 or negative, or no entries) goes through json.dumps as its tolist()
    monkeypatch.setattr(artifact_mod, "_BLOCK", block)
    M = np.array(rows, dtype=np.int64).reshape(len(rows), -1 if rows else 0)
    eligible = M.size > 0 and M.min() >= 0 and M.max() < 1 << 16
    assert (artifact_mod._table(M) is M) == eligible
    if eligible:
        for pad in ("", "    "):
            expected = json.dumps(rows, indent=2).replace("\n", "\n" + pad)
            assert b"".join(artifact_mod._layout_matrix(M, pad)).decode() == expected
    art = artifact_mod.construct_artifact("rational", 4, 1)
    art.c_h_rows = M
    expected = json.dumps(artifact_mod._document(art), indent=2, sort_keys=True, default=np.ndarray.tolist)
    assert artifact_mod.to_json(art) == expected + "\n"


@pytest.mark.parametrize("block", [1 << 20, 40])
@pytest.mark.parametrize("code", [("rational", 64, 2), ("hermitian", 4, 5)], ids=str)
def test_regeneration_in_small_blocks(monkeypatch, code, block):
    # a small block cuts each matrix into pieces of a line or two, each compared on its own
    monkeypatch.setattr(artifact_mod, "_BLOCK", block)
    art = artifact_mod.construct_artifact(*code)
    text = artifact_mod.to_json(art)
    real = json.loads  # the recipe is read with it, the matrices never
    monkeypatch.setattr(artifact_mod.json, "loads", lambda s: pytest.fail("a file to_json writes is regenerated")
                        if '"matrices"' in str(s) else real(s))
    again = artifact_mod.from_json(text)
    monkeypatch.undo()
    assert np.array_equal(again.c_g_rows, art.c_g_rows) and again.c_g_rows.dtype == art.c_g_rows.dtype
    assert np.array_equal(again.c_h_rows, art.c_h_rows) and again.c_h_rows.dtype == art.c_h_rows.dtype


# SHA-256 of to_json, fixed when the writer was the json module's encoder
ARTIFACT_SHA256 = {
    "rational-q4-j0": "a097b83d2bfb250d68a9104cb999ec4a5b21e14d9d8ae253f8794b0e2c15ba24",
    "descended-rational-q4-j0": "e9f4d23fb17134d3381f652c57d3d0e22a134182fb7906a98da619f9bb9f1c7c",
    "rational-q4-j1": "ec87618d5e8367d04e16ea4413d13613756ef560922e6ef343771d3011bf99eb",
    "descended-rational-q4-j1": "8bcc9dc172795fd67b4c6d666e562a3d279bb494e13a5c183e7376b0a342e534",
    "rational-q4-j2": "e319ed391ef3ea550c4421ccc59ad322fbc72cf641e641a5ec72ca5fabe8a6e1",
    "descended-rational-q4-j2": "ec709101913de752c7a96b160a24d151422b84dae49ef82f369e63f20231a704",
    "rational-q8-j0": "15bf6d31bc51fcdbc33130b8c94348e998ffa9afea594533c7538ee369f855a0",
    "descended-rational-q8-j0": "3fe3a307d3e86d68892aabd688862a56b87c8a24723fc7261888fcc0ed3b68d4",
    "rational-q8-j1": "010b5f6880dfe12e628b62c27ec6eac319832ce4394486fda1ddc880d9d2cc23",
    "descended-rational-q8-j1": "7ab60d3116f5babe09495d25029a2e7b25cdd5414fcfd340e16f6e8e14878236",
    "rational-q8-j2": "817037648d33de4ee44eeb7cd72864c3cbdd8e22856e2ea20fd484c52db79740",
    "descended-rational-q8-j2": "6590df8373a97cdf6e1a56711df99c2ee54c00675da19867f05ab09fb6b5458f",
    "rational-q8-j3": "79259e97650b1bf39b9534c904d2f23fa3be3a45ca03d330bcb70c7a9c428916",
    "descended-rational-q8-j3": "5746b2e8045b13bd085d799e0126b87970c4301f6c6687eea54156befd50251e",
    "rational-q8-j4": "0591bf03d5b60ea5523c52e764e0d6f14aa495d3e7d64f5972d53b534a63f45e",
    "descended-rational-q8-j4": "6338b887eb27a2cbc9c653488c464554de7cea0dd9e02d247b29feaa9c91f6a8",
    "hermitian-q2-j0": "23f924c413ec0e2e1ece2e37c21f5927ed170adbb9f22bfb89160b13363198c7",
    "descended-hermitian-q2-j0": "744f2db106e07deb5c1fb5d8600b885646a85991df3af323d76d544ebd9ec6d3",
    "hermitian-q2-j1": "cd9f95c8ee9f7c610dfc515ad4da5619014bbf36388e738e81652aad8dfa72a5",
    "descended-hermitian-q2-j1": "ef632c4a31acd1ab9e862691796b83906c8abde93bd5be388bd1e5ceb13115ec",
    "hermitian-q2-j2": "7933ba6819ddb4320890378c384909f490aa0f5eeeced1f9a77042161068a99a",
    "descended-hermitian-q2-j2": "9c332d080695bfc7ad0d7b6d6d6175d2dd19ed1e6e691156fa35ed103d28766b",
    "hermitian-q4-j1": "75133b22dba02f96ec47d8b379b54bba044646c1e4a68275a65c9f78bf088615",
    "descended-hermitian-q4-j1": "d8a7f3d92874492c2031ba16cc7181e23505103e3947fff2ae4756e9dbb9e6de",
    "hermitian-q4-j5": "0af7a3a0df584232b8a425b991d12dbfc0004a15bb5d85d69bf4ca36eeb084f6",
    "descended-hermitian-q4-j5": "3cfcac2e4f24fd58139db51d92b37b1de984ce4830d0efb2fe3b8faaaaacb434",
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_SHA256))
def test_artifact_bytes_are_pinned(tmp_path, name):
    # the file save writes piece by piece is to_json's text, byte for byte
    descended = name.startswith("descended-")
    kind, q, j = name.removeprefix("descended-").split("-")
    art = artifact_mod.construct_artifact(kind, int(q[1:]), int(j[1:]))
    if descended:
        art = artifact_mod.descend_artifact(art)
    text = artifact_mod.to_json(art)
    assert hashlib.sha256(text.encode()).hexdigest() == ARTIFACT_SHA256[name]
    path = tmp_path / f"{name}.json"
    artifact_mod.save(art, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ARTIFACT_SHA256[name]
    assert path.read_bytes().decode("ascii") == text


# SHA-256 of to_json where the subfield embedding's choice of root shows: a gamma outside GF(2)
# on the hermitian curve, and descents to GF(4); fixed when the embedding sent the subfield's
# generator to the least root of its minimal polynomial
EMBEDDING_SHA256 = {
    ("hermitian", 4, 1, 3, None): "3fedea2d52dfb484f9b5aa8d73a63f940d227cb5b9cf64220a5b087e937806f6",
    ("hermitian", 4, 1, 3, 2): "50c355db7aeabc55aebf1e009470da197245fcc28e0858ad302e977784284198",
    ("rational", 16, 1, 1, 2): "d055ae09dda0db8ac36a0e88faba0d58e10d4ffc8e83e25e60327f080084eb36",
}


@pytest.mark.parametrize("kind, q, j, gamma, base_degree", sorted(EMBEDDING_SHA256, key=str), ids=str)
def test_artifacts_that_depend_on_the_embedding_are_pinned(kind, q, j, gamma, base_degree):
    art = artifact_mod.construct_artifact(kind, q, j, gamma)
    if base_degree:
        art = artifact_mod.descend_artifact(art, base_degree)
    digest = hashlib.sha256(artifact_mod.to_json(art).encode()).hexdigest()
    assert digest == EMBEDDING_SHA256[kind, q, j, gamma, base_degree]


@pytest.mark.parametrize("code", [("rational", 512, 4), ("hermitian", 8, 1)], ids=str)
def test_save_and_load_hold_no_second_copy_of_the_file(tmp_path, code):
    # save keeps only C(G)'s pieces, which C(H) reuses as its prefix, and load the file's bytes,
    # the parsed tables and their temporaries: a whole text beside the pieces or beside the
    # bytes would put either at twice the file's size
    import tracemalloc

    art = artifact_mod.construct_artifact(*code)
    path = tmp_path / "a.json"
    artifact_mod.save(art, str(path))  # the first call builds the field's tables
    artifact_mod.load(str(path))
    peaks = []
    for call in (lambda: artifact_mod.save(art, str(path)), lambda: artifact_mod.load(str(path))):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    size = path.stat().st_size
    assert size > 3 * 10**6
    assert peaks[0] < size and peaks[1] < 1.8 * size


# SHA-256 of the files construct writes and the reports verify prints (None: not pinned) for
# the codes of the benchmark's build workload, as perfbench/pins.json holds them
BUILD_SHA256 = {
    ("rational", 256, 4): ("6cb365ea72ce295bd21a4aebc642036d486bc904cff8b573fe0374d5c1f70278",
                           "c324236fd5816e85fc3fdf0ff851b13dc7262c937d72a498ed5670b8a06186ff"),
    ("hermitian", 8, 1): ("637df3e3b40d142805b55d1de53e6d8fac7dcd7939341a88ff35b30b0499d4d3",
                          "05b7965a2200874d5da36fa700cd2c2ba47053262bc9b504468c37d6377b0ca3"),
    ("rational", 512, 4): ("6a472ad990feb638eab8122a335fe0b84e41b781b300967305e550dbb4626696", None),
}


@pytest.mark.parametrize("kind,q,j", sorted(BUILD_SHA256), ids=str)
def test_build_outputs_are_pinned(tmp_path, capsys, kind, q, j):
    artifact_digest, report_digest = BUILD_SHA256[kind, q, j]
    path = tmp_path / f"{kind}-q{q}-j{j}.json"
    assert main(["construct", "--backend", kind, "--q", str(q), "--j", str(j), "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == artifact_digest
    capsys.readouterr()
    if report_digest is not None:
        assert main(["verify", str(path)]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == report_digest


# SHA-256 of the verify report (as the CLI prints it) after row 0 of one matrix is changed
TAMPERED_REPORT_SHA256 = {
    "tampered-c_g-rational-q8-j2": "55d0e2d26ec081bb4bd53c2d52e2260b37b4afa4fdd85a002e632021f256a2bc",
    "tampered-c_g-hermitian-q4-j5": "9ce8de974930f44b6b07beeb97a6752a7b7c379903230784743305520a4cb4c9",
    "tampered-c_h-rational-q8-j2": "2c8a9c42e09362f2bbe7b5c9e1def30dd2009a3d2bdf265af5a4b7254b2c5004",
}


@pytest.mark.parametrize("name", sorted(TAMPERED_REPORT_SHA256))
def test_tampered_report_bytes_are_pinned(name):
    _, key, kind, q, j = name.split("-")
    art = artifact_mod.construct_artifact(kind, int(q[1:]), int(j[1:]))
    getattr(art, key + "_rows")[0][0] ^= 1
    report = artifact_mod.verify_artifact(art)
    assert not report["ok"]
    assert report["checks"][0] == {"name": "matrices-recompute", "status": "fail", "detail":
                                   f"artifact: matrices.{key} is not what the {kind} backend at q = {q[1:]}, "
                                   f"j = {j[1:]} writes"}
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == TAMPERED_REPORT_SHA256[name]


def record_eliminations(monkeypatch):
    """The shapes of the matrices that enter ``linalg``'s one elimination kernel, as a list that fills up.

    ``_rref_array`` picks its arm from the field, so this counts binary
    (packed-row) and log/antilog eliminations alike.
    """
    from agstab import linalg

    shapes = []
    real = linalg._rref_array

    def recording(field, M):
        shapes.append(M.shape)
        return real(field, M)

    monkeypatch.setattr(linalg, "_rref_array", recording)
    return shapes


@pytest.mark.parametrize("kind,q,j,options", [
    pytest.param("rational", 16, 2, {}, id="rational-16-2"),
    pytest.param("hermitian", 4, 5, {}, id="hermitian-4-5"),
    pytest.param("rational", 8, 1, {"exact_distance": True}, id="rational-8-1-exact-distance"),
    pytest.param("hermitian", 4, 5, {"budget": 2}, id="hermitian-4-5-budget-2"),
    pytest.param("rational", 16, 1, {"budget": 2}, id="rational-16-1-budget-2"),
    pytest.param("hermitian", 8, 1, {"budget": 2}, id="hermitian-8-1-budget-2"),
])
def test_verify_reduces_no_matrix(monkeypatch, kind, q, j, options):
    art = artifact_mod.construct_artifact(kind, q, j)
    shapes = record_eliminations(monkeypatch)
    # the stored rows are the fresh ones, so the exponent tables decide every check and no
    # matrix is reduced; the searches take their checks from the evaluation rows: those of
    # C(H) for C(G), those of C(G) for C(H), and the swapped C(H) rows for the Hamming search
    assert artifact_mod.verify_artifact(art, **options)["ok"]
    assert shapes == []
    # an edited C(G) is no code the recipe proves: matrices-recompute fails, every other check is
    # skipped and no search runs
    art.c_g_rows[0][0] ^= 1
    report = artifact_mod.verify_artifact(art, **options)
    assert [c["status"] for c in report["checks"]] == ["fail"] + ["skipped"] * 6
    assert "d_exact" not in report
    assert shapes == []


def test_verify_reduces_no_stored_row_of_an_edited_hermitian_q16_file(monkeypatch):
    from agstab import linalg

    # the stored rows are 2041 x 4080 and 2039 x 4080 over GF(256): reducing them took 100 times the honest verify
    art = artifact_mod.construct_artifact("hermitian", 16, 1)
    art.c_g_rows[5][7] ^= 1

    def refuse(*args):
        raise AssertionError("a matrix is reduced")

    monkeypatch.setattr(linalg, "rref", refuse)
    report = artifact_mod.verify_artifact(art)
    assert [c for c in report["checks"] if c["status"] == "fail"] == [{
        "name": "matrices-recompute", "status": "fail",
        "detail": "artifact: matrices.c_g is not what the hermitian backend at q = 16, j = 1 writes"}]
    # control: the elimination of the stored rows that verify once made is refused
    with pytest.raises(AssertionError, match="a matrix is reduced"):
        CodeBasis.from_rows(art.field, art.c_h_rows, art.width)


ELIMINATION_ORACLES = {"symplectic_dual", "contains", "relative_min_weight", "row_in_span"}


def _names(source: str) -> set[str]:
    """Every name a module's code uses: its identifiers, attributes and imports, not its strings."""
    import ast

    return {name for node in ast.walk(ast.parse(source))
            for name in (getattr(node, "id", None), getattr(node, "attr", None),
                         getattr(node, "name", None) if isinstance(node, ast.alias) else None) if name}


@pytest.mark.parametrize("module", ["artifact", "cli"])
def test_no_command_module_names_an_elimination_oracle(module):
    import importlib
    import inspect

    assert not _names(inspect.getsource(importlib.import_module(f"agstab.{module}"))) & ELIMINATION_ORACLES
    # control: the import that verify's elimination branch needed is seen
    assert _names("from .symplectic import CodeBasis, contains, relative_min_weight, symplectic_dual\n"
                  "linalg.row_in_span") & ELIMINATION_ORACLES == ELIMINATION_ORACLES


SEARCH_POLICY = {"ENUMERATION_CAP", "MinWeightResult", "search_refusal"}
SOLVER_CHOICE = {"points", "power_sum_solve", "_power_sum_block", "_power_sums", "_hamming_search"}


@pytest.mark.parametrize("module", ["artifact", "cli"])
def test_no_command_module_names_the_search_policy(module):
    # symplectic.sweep_min_weight and sweep_min_hamming_weight decide what a search enumerates and
    # what it refuses: a command names neither the cap, nor a result it builds, nor a refusal test
    import importlib
    import inspect

    assert not _names(inspect.getsource(importlib.import_module(f"agstab.{module}"))) & SEARCH_POLICY
    # control: the policy verify once split with the sweep is seen
    assert _names("from .symplectic import ENUMERATION_CAP, MinWeightResult, search_refusal\n"
                  "if refused := search_refusal(q, n, rank, budget, mode):\n"
                  "    res = MinWeightResult(status='empty')\n") & SEARCH_POLICY == SEARCH_POLICY


def test_decode_sim_names_no_solver():
    # the checks choose the decoder: decode-sim builds C(H)'s canonical basis and hands it over, naming
    # no solver and no points to choose one by
    import inspect

    from agstab import cli

    assert not _names(inspect.getsource(cli)) & SOLVER_CHOICE
    # control: the points decode-sim once passed beside the basis, and each solver's name, are seen
    assert _names("from .decoder import _hamming_search, _power_sum_block, _power_sums, power_sum_solve\n"
                  "points = tuple(backend.places[:, 0].tolist())\n"
                  "results = decode_syndromes(c_h, points, syn, deg_g)\n") & SOLVER_CHOICE == SOLVER_CHOICE


STORED_RECORDS = {"k", "d_lower", "deg_g", "d_exact", "c_g_rows", "c_h_rows", "places", "descended_from"}


def _stored_reads(source: str) -> set[str]:
    """The stored records that the function defined in ``source`` reads from its first argument: as
    an attribute, or by getattr with a constant name."""
    import ast

    function = ast.parse(source).body[0]
    art = function.args.args[0].arg
    reads = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == art:
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" and len(node.args) > 1
              and getattr(node.args[0], "id", None) == art and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads & STORED_RECORDS


def test_verify_reads_no_stored_record():
    import inspect
    import textwrap

    # fresh is the one reader of the stored records: verify builds its report from fresh's verdict
    source = textwrap.dedent(inspect.getsource(artifact_mod.verify_artifact))
    assert _stored_reads(source) == set()
    # control: one read put back is seen
    assert _stored_reads(source + "    return art.d_lower\n") == {"d_lower"}


@pytest.mark.parametrize("kind,q,j", [("rational", 512, 4), ("hermitian", 4, 5), ("rational", 8, 4)])
def test_construct_reduces_c_h_and_the_new_g_rows(monkeypatch, kind, q, j):
    from agstab.curves import build_codes, make_backend

    backend = make_backend(kind, q)
    n, width = backend.n, 2 * backend.n
    shapes = record_eliminations(monkeypatch)
    # construct certifies the ranks from the exponent tables and reduces no matrix
    artifact_mod.construct_artifact(kind, q, j)
    assert shapes == []
    # the elimination oracle reduces each code once, C(H) first
    build_codes(backend, j)
    assert shapes == [(n - j, width), (n + j, width)]


def test_every_elimination_goes_through_rref(monkeypatch, tmp_path):
    from agstab import descent, linalg

    shapes = record_eliminations(monkeypatch)
    calls = []
    real = linalg.rref

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(linalg, "rref", counting)

    def run(*argv, status=0):
        shapes.clear()
        calls.clear()
        assert main(list(argv)) == status
        assert len(shapes) == len(calls)
        return len(shapes)

    # one rref call per elimination, so a wrapper of linalg.rref sees every reduction
    r81, edited, h45, down = (str(tmp_path / f"{name}.json") for name in ("r81", "edited", "h45", "down"))
    assert run("construct", "--backend", "rational", "--q", "8", "--j", "1", "--out", r81) == 0
    # none for the certified code, and none once edited, since the stored rows are never reduced
    assert run("verify", r81, "--exact-distance") == 0
    art = artifact_mod.load(r81)
    art.c_g_rows[0][0] ^= 1
    artifact_mod.save(art, edited)
    assert run("verify", edited, "--exact-distance", status=1) == 0
    run("construct", "--backend", "hermitian", "--q", "4", "--j", "5", "--out", h45)
    descent._shared_basis.cache_clear()  # two reductions for the basis, then the code and its descent twice
    assert run("descend", "--in", h45, "--out", down) == 6
    assert run("verify", down) > 0
    assert run("decode-sim", "--artifact", h45, "--trials", "2", "--weight", "1", "--seed", "3",
               "--out", str(tmp_path / "trials.jsonl")) == 1


def test_decode_sim_and_descend_reduce_only_the_code_they_use(monkeypatch, tmp_path):
    import numpy as np

    from agstab import descent, linalg

    shapes = []
    real = linalg.rref

    def counting(*args):
        shapes.append(np.shape(args[1]))
        return real(*args)

    src = str(tmp_path / "h45.json")
    assert main(["construct", "--backend", "hermitian", "--q", "4", "--j", "5", "--out", src]) == 0
    descent._shared_basis.cache_clear()  # the basis reductions are counted as if first made here
    monkeypatch.setattr(linalg, "rref", counting)
    # decode-sim needs C(H) (25 x 60) alone, not C(G) (35 x 60)
    assert main(["decode-sim", "--artifact", src, "--trials", "2", "--weight", "1", "--seed", "3",
                 "--out", str(tmp_path / "trials.jsonl")]) == 0
    assert shapes == [(25, 60)]
    shapes.clear()
    # descend reduces the proved pair: two 4 x 8 reductions for the descent basis, the fresh C(G)
    # and C(H), then their descents, the descended C(G) and C(H); the stored rows, equal to the
    # fresh ones, are compared and never reduced
    assert main(["descend", "--in", src, "--out", str(tmp_path / "down.json")]) == 0
    assert shapes == [(4, 8), (4, 8), (35, 60), (25, 60), (140, 240), (100, 240)]


def test_descend_of_a_fresh_source_builds_no_kernel_and_no_containment_check(monkeypatch, tmp_path):
    # certify proved the source's C(H) to be its C(G)'s dual, inside C(G): the descended C(H) is
    # the descent of that C(H), and the descended containment follows from the twist, so no
    # kernel or check over GF(2^m) or GF(2)
    from agstab import linalg

    calls = []
    src = str(tmp_path / "h45.json")
    assert main(["construct", "--backend", "hermitian", "--q", "4", "--j", "5", "--out", src]) == 0
    for name in ("_nullspace_rows", "row_in_span"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, name=name, real=real: calls.append(
            (name, np.shape(args[1] if name == "row_in_span" else args[0]))) or real(*args))
    assert main(["descend", "--in", src, "--out", str(tmp_path / "down.json")]) == 0
    assert calls == []


def test_cli_descend_refuses_a_descended_artifact(tmp_path, capsys):
    # its output would record a source backend of nulls: refused, once fresh finds no stale part
    src, down, again = (str(tmp_path / name) for name in ("h21.json", "down.json", "again.json"))
    assert main(["construct", "--backend", "hermitian", "--q", "2", "--j", "1", "--out", src]) == 0
    assert main(["descend", "--in", src, "--out", down]) == 0
    capsys.readouterr()
    assert main(["descend", "--in", down, "--out", again]) == 2
    assert capsys.readouterr().err == ("error: cannot descend a descended artifact, whose source "
                                       "backend would be lost; descend its source\n")
    assert not (tmp_path / "again.json").exists()


def test_each_riemann_roch_matrix_is_evaluated_once(monkeypatch):
    from agstab import curves

    calls = []
    real = curves.evaluation_matrix

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(curves, "evaluation_matrix", counting)
    monkeypatch.setattr(artifact_mod, "evaluation_matrix", counting)
    # the L(G) rows' first n - j are the L(H) ones: L(H) is never evaluated
    for kind, q, j in (("rational", 16, 2), ("hermitian", 4, 1), ("hermitian", 4, 3)):
        calls.clear()
        art = artifact_mod.construct_artifact(kind, q, j)
        assert calls == ["g"]
        calls.clear()
        assert artifact_mod.verify_artifact(art)["ok"]
        assert calls == ["g"]


@pytest.mark.parametrize("flags", [{"budget": 1}, {"budget": 3}, {"exact_distance": True},
                                   {"exact_distance": True, "budget": 1}], ids=str)
def test_a_certified_search_is_refused_before_any_reduction(monkeypatch, flags):
    from agstab import linalg, symplectic

    calls = []
    real = linalg.rref

    def counting(*args):
        calls.append(1)
        return real(*args)

    art = artifact_mod.construct_artifact("hermitian", 4, 5)
    monkeypatch.setattr(linalg, "rref", counting)
    # weight 1's right half holds C(30,1) * 255 = 7650 rows, and q^dim is 16^35
    monkeypatch.setattr(symplectic, "ENUMERATION_CAP", 7649)
    report = artifact_mod.verify_artifact(art, **flags)
    assert calls == []
    detail = next(c["detail"] for c in report["checks"] if c["name"] == "distance-bound")
    assert detail.startswith("search failed: ") and not report["ok"]
    # C(G)'s rows reversed span the same code, but are not the fresh rows: no search runs on
    # them, so none is refused, and still nothing is reduced
    reversed_rows = artifact_mod.construct_artifact("hermitian", 4, 5)
    reversed_rows.c_g_rows = reversed_rows.c_g_rows[::-1].copy()
    detail = next(c["detail"] for c in artifact_mod.verify_artifact(reversed_rows, **flags)["checks"]
                  if c["name"] == "distance-bound")
    assert detail == "the stored matrices.c_g is not the recipe's: nothing else is checked"
    assert calls == []


def test_verify_passes_and_reports_all_checks(tmp_path):
    art = artifact_mod.construct_artifact("rational", 8, 1)
    report = artifact_mod.verify_artifact(art, exact_distance=True)
    assert report["ok"]
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "matrices-recompute",
        "dual-equality",
        "containment",
        "k-formula",
        "distance-bound",
        "euclidean-dual-containment",
        "hamming-bound",
    }
    assert report["d_exact"] == 2


def test_hamming_bound_reads_the_fresh_code():
    # the classical claim is about the fresh code, of minimum Hamming weight 2.  An all-ones first
    # row would give the stored C(G) a weight of 4: that file is no code the recipe makes, so no
    # search runs on it, the Hamming search included
    art = artifact_mod.construct_artifact("hermitian", 2, 1)
    hamming = artifact_mod.verify_artifact(art, exact_distance=True)["checks"][-1]
    assert hamming == {"name": "hamming-bound", "status": "pass",
                       "detail": "classical dim 4 = n + j and min Hamming weight 2 >= 2"}
    art.c_g_rows[0] = 1
    report = artifact_mod.verify_artifact(art, exact_distance=True)
    assert [c["status"] for c in report["checks"]] == ["fail"] + ["skipped"] * 6 and "d_exact" not in report


@pytest.mark.parametrize("edit", [("kind", "elliptic"), ("q", 6), ("j", 99), ("gamma", 0)], ids=str)
def test_cli_descend_refuses_a_backend_block_that_names_no_code(tmp_path, capsys, edit):
    # descend checks the backend block before it reduces anything, and says what verify says
    src, out = tmp_path / "r81.json", tmp_path / "down.json"
    doc = json.loads(artifact_mod.to_json(artifact_mod.construct_artifact("rational", 8, 1)))
    doc["backend"][edit[0]] = edit[1]
    src.write_text(json.dumps(doc))
    assert main(["verify", str(src)]) == 2
    error = capsys.readouterr().err
    assert error.startswith("error: ") and "internal" not in error
    for argv in (["descend", "--in", str(src), "--out", str(out)],
                 ["decode-sim", "--artifact", str(src), "--trials", "1", "--weight", "1", "--seed", "1",
                  "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", error)
        assert not out.exists()


def _not_fresh(doc, *paths):
    """The document with the record at each named key path edited: rational q=8 j=1 read over
    x^3+x^2+1 (13), not x^3+x+1 (11); one entry of the last C(G) row, outside the C(H) prefix; one of
    the first C(H) row; the lower bound one more; the places reversed; a provenance that names the
    artifact's own backend.  On its descent: one entry of the Gram matrix, and the source's lower
    bound one more."""
    source = doc["provenance"]["descended_from"]
    if "field.modulus" in paths:
        doc["field"]["modulus"] = 13
    if "matrices.c_g" in paths:
        doc["matrices"]["c_g"][-1][0] ^= 1
    if "matrices.c_h" in paths:
        doc["matrices"]["c_h"][0][0] ^= 1
    if "params.d_lower" in paths:
        doc["params"]["d_lower"] += 1
    if "places" in paths:
        doc["places"].reverse()
    if SOURCE in paths:
        doc["provenance"]["descended_from"] = {"backend": doc["backend"]}
    if f"{SOURCE}.gram" in paths:
        source["gram"][0][0] ^= 1
    if f"{SOURCE}.params.d_lower" in paths:
        source["params"]["d_lower"] += 1
    return doc


SOURCE = "provenance.descended_from"
R81 = "the rational backend at q = 8, j = 1"
# in the writer's sorted-key order, which fresh walks
NOT_FRESH = {
    "field.modulus": f"artifact: field.modulus is 13, but {R81} writes 11",
    "matrices.c_g": f"artifact: matrices.c_g is not what {R81} writes",
    "matrices.c_h": f"artifact: matrices.c_h is not what {R81} writes",
    "params.d_lower": f"artifact: params.d_lower is 3, but {R81} writes 2",
    "places": f"artifact: places is not what {R81} writes",
    SOURCE: f'artifact: {SOURCE} is {{"backend": {{"gamma": 1, "j": 1, "kind": "rational", "q": 8}}}}, but {R81} '
            "writes null",
}
# a descent's records of its source, on the descent of rational q=8 j=1
DESCENT_NOT_FRESH = {
    f"{SOURCE}.gram": f"artifact: {SOURCE}.gram is [[0, 0, 0], [0, 0, 1], [0, 1, 0]], but the descent to GF(2) of "
                      f"{R81} writes [[1, 0, 0], [0, 0, 1], [0, 1, 0]]",
    f"{SOURCE}.params.d_lower": f"artifact: {SOURCE}.params.d_lower is 3, but the descent to GF(2) of {R81} writes 2",
}


@pytest.mark.parametrize("path", [*NOT_FRESH, *DESCENT_NOT_FRESH])
def test_every_command_refuses_a_stale_record_in_fresh_words(tmp_path, capsys, path):
    # fresh alone reads the stored records, and every command acts only on a file with none stale:
    # verify fails it, and descend and decode-sim refuse it in fresh's words, writing no file and no
    # record.  The inherited bound holds for the backend's own code alone, and the guarantee region
    # for the fresh deg G, field and C(H).  An edited descent is refused so before it is refused as
    # a descent
    art = artifact_mod.construct_artifact("rational", 8, 1)
    error = NOT_FRESH.get(path) or DESCENT_NOT_FRESH[path]
    text = artifact_mod.to_json(art if path in NOT_FRESH else artifact_mod.descend_artifact(art))
    src, out = tmp_path / "edited.json", tmp_path / "down.json"
    src.write_text(json.dumps(_not_fresh(json.loads(text), path)))
    assert main(["verify", str(src)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][0]["detail"] == error
    for argv in (["descend", "--in", str(src), "--out", str(out)],
                 ["decode-sim", "--artifact", str(src), "--trials", "3", "--weight", "1", "--seed", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not out.exists()


def _long_places(doc):
    doc["places"] = [[0]] * 20000


def _long_provenance(doc):
    doc["provenance"]["descended_from"] = {"x": list(range(30000))}


# a record far longer than a line, where the writer writes null: fresh names it as a table
LONG_RECORDS = {
    "descent-places": (("hermitian", 2, 1), True, _long_places,
                       "artifact: places is not what the descent to GF(2) of the hermitian backend at q = 2, j = 1 writes"),
    "curve-provenance": (("rational", 8, 1), False, _long_provenance,
                         f"artifact: {SOURCE} is not what {R81} writes"),
}


@pytest.mark.parametrize("row", LONG_RECORDS)
def test_a_long_stored_record_gets_a_one_line_reason(tmp_path, capsys, row):
    # the stored record dumped would be about 100 000 and 199 000 characters: every command's
    # reason shows two records only when they fit in a line
    code, descended, edit, error = LONG_RECORDS[row]
    art = artifact_mod.construct_artifact(*code)
    doc = json.loads(artifact_mod.to_json(artifact_mod.descend_artifact(art) if descended else art))
    edit(doc)
    src, out = tmp_path / "long.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc, indent=2))
    assert main(["verify", str(src)]) == 1
    assert json.loads(capsys.readouterr().out)["checks"][0]["detail"] == error
    for argv in (["descend", "--in", str(src), "--out", str(out)],
                 ["decode-sim", "--artifact", str(src), "--trials", "3", "--weight", "1", "--seed", "1",
                  "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert not out.exists()


def test_fresh_names_the_first_stale_record():
    # the writer's sorted-key order puts the field first, for indices over another modulus are other
    # elements, then C(G), C(H), the params, the places and the provenance; the fresh code is made
    # once per artifact, and the stored records compared on every call
    text = artifact_mod.to_json(artifact_mod.construct_artifact("rational", 8, 1))
    order = list(NOT_FRESH)
    for at in range(len(order) + 1):
        art = artifact_mod.from_json(json.dumps(_not_fresh(json.loads(text), *order[at:])))
        source = artifact_mod.fresh(art)
        first = order[at] if at < len(order) else None
        assert (source.stale, source.reason) == (first, NOT_FRESH.get(first))
        assert np.array_equal(source.h_rows, source.g_rows[:3]) and source.j == 1
    again = artifact_mod.fresh(art)
    assert again.g_rows is source.g_rows and again.stale is None
    art.c_g_rows[-1, 0] ^= 1
    assert artifact_mod.fresh(art)[4:6] == ("matrices.c_g", NOT_FRESH["matrices.c_g"])


@pytest.mark.parametrize("block", ["", "backend", "field", "matrices", "params", "provenance", "tool"])
def test_every_command_refuses_a_key_the_writer_does_not_write(tmp_path, capsys, block):
    # the file is not its recipe's bytes: verify, descend and decode-sim exit 2 with one error line
    # that names the key, and write no file and no record.  The tool block is informational
    doc = json.loads(artifact_mod.to_json(artifact_mod.construct_artifact("rational", 8, 1)))
    (doc[block] if block else doc)["note"] = "an extra key"
    src, out = tmp_path / "extra.json", tmp_path / "out.json"
    src.write_text(json.dumps(doc))
    key = f"{block}.note" if block else "note"
    for argv in (["verify", str(src)], ["descend", "--in", str(src), "--out", str(out)],
                 ["decode-sim", "--artifact", str(src), "--trials", "3", "--weight", "1", "--seed", "1",
                  "--out", str(out)]):
        if block == "tool":
            assert main(argv) == 0
            out.unlink(missing_ok=True)
        else:
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: artifact: unknown key {key!r}\n")
            assert not out.exists()


def test_fresh_names_a_record_added_to_the_writer(monkeypatch):
    # fresh holds no list of the records it compares: one more record the writer writes, at the top
    # level or in a block, is compared and named when it is edited
    real = artifact_mod._document

    def writing_more(art):
        doc = real(art)
        doc["label"] = getattr(art, "label", "honest")
        doc["params"]["rate"] = getattr(art, "rate", [art.k, art.n])
        return doc

    monkeypatch.setattr(artifact_mod, "_document", writing_more)
    for code in (("rational", 8, 1), ("hermitian", 2, 1)):
        art = artifact_mod.construct_artifact(*code)
        assert artifact_mod.fresh(art).stale is None
        art.rate = [art.k, art.n, 0]
        assert artifact_mod.fresh(art).stale == "params.rate"
        art.label = "edited"
        verdict = artifact_mod.fresh(art)
        assert (verdict.stale, verdict.reason) == ("label", f'artifact: label is "edited", but the {code[0]} backend '
                                                            f"at q = {code[1]}, j = 1 writes \"honest\"")
        # the two records are shown while their dumps, with "honest"'s 8 characters, fit in 80
        art.label = "x" * 70
        assert f'label is "{art.label}", but' in artifact_mod.fresh(art).reason
        art.label += "x"
        assert artifact_mod.fresh(art).reason == (f"artifact: label is not what the {code[0]} backend "
                                                  f"at q = {code[1]}, j = 1 writes")


@pytest.mark.parametrize("code", [("rational", 256, 4), ("hermitian", 8, 1)], ids=str)
def test_fresh_serialises_no_table_of_an_honest_artifact(monkeypatch, tmp_path, code):
    # fresh runs in every verify, descend and decode-sim: its tables are compared by value, and no
    # record it serialises is C(G), C(H) or the places
    path = tmp_path / "a.json"
    artifact_mod.save(artifact_mod.construct_artifact(*code), str(path))
    art = artifact_mod.load(str(path))
    dumped = []
    real = artifact_mod._dump
    monkeypatch.setattr(artifact_mod, "_dump", lambda value: dumped.append(value) or real(value))

    def tables() -> list:  # every serialised value as long as a table, or a table itself
        return [value for value in dumped if isinstance(value, (list, np.ndarray)) and len(value) >= 8
                or any(value is table for table in (art.c_g_rows, art.c_h_rows, art.places))]

    assert artifact_mod.fresh(art).stale is None and tables() == []
    # the control: with the fresh places a list, as in a walk that knew no table but the matrices,
    # they are serialised and seen
    parts = artifact_mod._parts
    monkeypatch.setattr(artifact_mod, "_parts", lambda *args: {**parts(*args), "places": parts(*args)["places"].tolist()})
    assert artifact_mod.fresh(art).stale is None and len(tables()) == 2


def test_only_the_commands_that_rely_on_a_proof_run_certify(monkeypatch, tmp_path):
    # decode-sim compares C(H) with the fresh code and reads no proved fact: no proof; verify and
    # descend rely on the proved pair.  Each evaluates L(G) once
    from agstab import curves

    proofs, evaluations = [], []
    real_certify, real_evaluation = curves.certify, curves.evaluation_matrix
    src = str(tmp_path / "h45.json")
    assert main(["construct", "--backend", "hermitian", "--q", "4", "--j", "5", "--out", src]) == 0
    monkeypatch.setattr(artifact_mod, "certify", lambda *args: proofs.append(args[1]) or real_certify(*args))
    counting = lambda *args: evaluations.append(args[1]) or real_evaluation(*args)  # noqa: E731
    monkeypatch.setattr(curves, "evaluation_matrix", counting)
    monkeypatch.setattr(artifact_mod, "evaluation_matrix", counting)
    for argv, proved in (
            (["decode-sim", "--artifact", src, "--trials", "2", "--weight", "1", "--seed", "3",
              "--out", str(tmp_path / "trials.jsonl")], []),
            (["verify", src], [5]),
            (["descend", "--in", src, "--out", str(tmp_path / "down.json")], [5])):
        proofs.clear()
        evaluations.clear()
        assert main(argv) == 0
        assert (proofs, evaluations) == (proved, [5]), argv[0]


def test_tampered_matrix_fails_verification():
    art = artifact_mod.construct_artifact("hermitian", 2, 1)
    art.c_g_rows[0][0] ^= 1
    report = artifact_mod.verify_artifact(art)
    assert not report["ok"]
    failed = {c["name"] for c in report["checks"] if c["status"] == "fail"}
    assert "dual-equality" in failed or "matrices-recompute" in failed


def test_descend_artifact_records_provenance():
    art = artifact_mod.construct_artifact("hermitian", 2, 1)
    down = artifact_mod.descend_artifact(art)
    assert down.n == 6 and down.k == 2
    assert down.field.degree == 1
    assert down.places is None
    assert down.descended_from["backend"]["kind"] == "hermitian"
    assert down.descended_from["gram"] == [[0, 1], [1, 1]]
    report = artifact_mod.verify_artifact(down, exact_distance=True)
    assert report["ok"]


def test_descend_gf16_artifact_uses_self_dual_fallback():
    art = artifact_mod.construct_artifact("rational", 16, 1)
    down = artifact_mod.descend_artifact(art, base_degree=2)
    assert down.n == 16 and down.k == 2
    basis = down.descended_from["basis"]
    gram = down.descended_from["gram"]
    assert gram == [[1, 0], [0, 1]]  # fell back to the trace-orthonormal basis
    report = artifact_mod.verify_artifact(down)
    assert report["ok"]


def test_unsupported_schema_rejected():
    art = artifact_mod.construct_artifact("rational", 8, 0)
    doc = json.loads(artifact_mod.to_json(art))
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        artifact_mod.from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# the seeded generator
# ---------------------------------------------------------------------------

def test_lcg_reference_stream():
    rng = Lcg64(7)
    first = [rng.next_u32() for _ in range(4)]
    # frozen reference values of the documented recurrence
    expected = []
    state = 7
    for _ in range(4):
        state = (6364136223846793005 * state + 1442695040888963407) % 2**64
        expected.append(state >> 32)
    assert first == expected


def test_error_sampler_is_deterministic_and_valid():
    a = sample_symplectic_error(Lcg64(99), 8, 16, 2)
    b = sample_symplectic_error(Lcg64(99), 8, 16, 2)
    assert a == b
    assert symplectic_weight(a) == 2
    with pytest.raises(ValueError):
        sample_symplectic_error(Lcg64(1), 4, 16, 5)


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def test_cli_construct_verify_cycle(tmp_path, capsys):
    out = tmp_path / "art.json"
    assert main(["construct", "--backend", "hermitian", "--q", "2", "--j", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out), "--exact-distance"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["d_exact"] == 1


def test_cli_verify_fails_on_tampered_file(tmp_path, capsys):
    out = tmp_path / "art.json"
    main(["construct", "--backend", "rational", "--q", "8", "--j", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["matrices"]["c_g"][0][0] ^= 3
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 1
    assert not json.loads(capsys.readouterr().out)["ok"]


def test_cli_invalid_parameters_exit_2(tmp_path, capsys):
    code = main(["construct", "--backend", "hermitian", "--q", "3", "--j", "0",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "power of 2" in capsys.readouterr().err
    code = main(["construct", "--backend", "rational", "--q", "8", "--j", "99",
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2


def test_cli_names_the_backend_in_errors(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert main(["construct", "--backend", "rational", "--q", "16", "--j", "99", "--out", out]) == 2
    assert capsys.readouterr().err == "error: j must be in [0, 8] for RationalBackend(q=16), got 99\n"
    assert main(["construct", "--backend", "hermitian", "--q", "4", "--j", "99", "--out", out]) == 2
    assert "for HermitianBackend(q=4, gamma=1), got 99" in capsys.readouterr().err


@pytest.mark.parametrize("kind,q,n", [("rational", 16384, 8192), ("rational", 65536, 32768),
                                      ("hermitian", 32, 16368)])
def test_construct_refuses_more_place_pairs_than_the_bound(tmp_path, capsys, kind, q, n):
    # refused before any place or matrix is built: rational q=65536 would hold a 4 GiB matrix
    import time
    import tracemalloc

    out = tmp_path / "x.json"
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(["construct", "--backend", kind, "--q", str(q), "--j", "1", "--out", str(out)])
        elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and elapsed < 1 and peak < 1 << 20 and not out.exists()
    assert capsys.readouterr().err == (f"error: {kind} q={q} has n = {n} place pairs, "
                                       "more than the 4096 a code may have\n")


def test_cli_decode_sim_refuses_past_the_cap(tmp_path, capsys):
    art = str(tmp_path / "h8.json")
    assert main(["construct", "--backend", "hermitian", "--q", "8", "--j", "1", "--out", art]) == 0
    capsys.readouterr()
    # hermitian checks are not power sums, so the Hamming search decodes them: a weight-2 error
    # inside the guarantee region (t_cap = 55) has Hamming weight 3 or 4 after the swap, and the
    # search refuses weight 3 instead of running for hours
    code = main(["decode-sim", "--artifact", art, "--trials", "1", "--weight", "2", "--seed", "1",
                 "--out", str(tmp_path / "trials.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == ("error: weight 3: the right half has C(504,2) * 63^2 = 503094564 rows, "
                   "over the cap 16777216\n")


@pytest.mark.parametrize("q, j", [(64, 4), (128, 1)])
def test_cli_decode_sim_power_sums_decode_past_the_search(tmp_path, capsys, q, j):
    # weight 2 is inside the region (t_cap = 13 and 15); the search took about 18 s a trial at
    # q=64 and refused q=128, and the power sums take milliseconds
    art, out = str(tmp_path / "r.json"), tmp_path / "trials.jsonl"
    assert main(["construct", "--backend", "rational", "--q", str(q), "--j", str(j), "--out", art]) == 0
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["decode-sim", "--artifact", art, "--trials", "5", "--weight", "2", "--seed", "5",
                 "--out", str(out)]) == 0
    assert time.perf_counter() - start < 1.0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 5
    assert all(r["status"] == "unique-guaranteed" and r["recovered"] for r in records)
    assert capsys.readouterr().err == ("recovered 5/5; status unique-guaranteed 5, found-min 0, "
                                       "budget-exhausted 0; decoder power-sums 5\n")


@pytest.mark.parametrize("q, j, weights", [(16, 1, (1, 2, 3)), (32, 12, (1, 2)), (8, 2, (1, 2))])
def test_cli_decode_sim_streams_are_the_same_on_a_plain_copy_of_c_h(tmp_path, capsys, monkeypatch, q, j, weights):
    # inside the region (t_cap = 1 at each) and beyond it the power sums answer as the search does:
    # the search decodes the same rows handed over as a basis that states no points
    from agstab import cli

    art = str(tmp_path / "r.json")
    assert main(["construct", "--backend", "rational", "--q", str(q), "--j", str(j), "--out", art]) == 0
    real = cli.decode_syndromes

    def stream(weight: int, decode) -> tuple[bytes, str]:
        monkeypatch.setattr(cli, "decode_syndromes", decode)
        out = tmp_path / "trials.jsonl"
        assert main(["decode-sim", "--artifact", art, "--trials", "12", "--weight", str(weight),
                     "--seed", "9", "--out", str(out)]) == 0
        return out.read_bytes(), capsys.readouterr().err

    for weight in weights:
        ours, ours_err = stream(weight, real)
        search, search_err = stream(weight, lambda basis, syndromes, deg_g: real(
            CodeBasis(basis.field, basis.width, basis.rows, basis.pivots), syndromes, deg_g))
        assert ours == search
        assert ours_err.endswith("; decoder power-sums 12\n")
        assert ours_err.replace("power-sums", "search") == search_err


def test_cli_decode_sim_refuses_a_forged_deg_g(tmp_path, capsys):
    # rational q=16 j=1 with deg G set to 1: t_cap would grow from 1 to 3, and 3 of these
    # 30 weight-3 decodes were marked unique-guaranteed without being the planted error
    src = tmp_path / "r16.json"
    assert main(["construct", "--backend", "rational", "--q", "16", "--j", "1", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    doc["params"]["deg_g"] = 1
    forged, out = tmp_path / "forged.json", tmp_path / "trials.jsonl"
    forged.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["--trials", "30", "--weight", "3", "--seed", "4", "--out", str(out)]
    assert main(["decode-sim", "--artifact", str(forged), *argv]) == 2
    assert capsys.readouterr().err == "error: artifact: params.deg_g is 1, but the rational backend at q = 16, j = 1 writes 8\n"
    assert not out.exists()
    # the control: the honest file decodes the same stream, and beyond t_cap = 1 nothing is guaranteed
    assert main(["decode-sim", "--artifact", str(src), *argv]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 30 and not any(r["status"] == "unique-guaranteed" for r in records)


def test_cli_exits_2_on_a_reducible_field_modulus(tmp_path, capsys):
    src = str(tmp_path / "h41.json")
    assert main(["construct", "--backend", "hermitian", "--q", "4", "--j", "1", "--out", src]) == 0
    doc = json.loads((tmp_path / "h41.json").read_text())
    doc["field"]["modulus"] = 0b10101  # (x^2 + x + 1)^2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["verify", str(bad)], ["descend", "--in", str(bad), "--out", str(tmp_path / "down.json")],
                 ["decode-sim", "--artifact", str(bad), "--trials", "1", "--weight", "1", "--seed", "1"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: modulus 0b10101 is not irreducible of degree 4 over GF(2)\n")


def test_cli_decode_sim_refuses_a_forged_field_modulus(tmp_path, capsys):
    # hermitian q=4 j=5 read over x^4+x^3+1 (25), not x^4+x+1 (19): the same indices are other
    # elements, and no guarantee was ever established over that field
    src = tmp_path / "h4.json"
    assert main(["construct", "--backend", "hermitian", "--q", "4", "--j", "5", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    assert doc["field"]["modulus"] == 19
    doc["field"]["modulus"] = 25
    forged, out = tmp_path / "forged.json", tmp_path / "trials.jsonl"
    forged.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["--trials", "5", "--weight", "1", "--seed", "4", "--out", str(out)]
    assert main(["decode-sim", "--artifact", str(forged), *argv]) == 2
    assert capsys.readouterr().err == (
        "error: artifact: field.modulus is 25, but the hermitian backend at q = 4, j = 5 writes 19\n")
    assert not out.exists()
    assert main(["decode-sim", "--artifact", str(src), *argv]) == 0


def test_cli_descend_derives_its_params_from_the_recipe(tmp_path, capsys):
    # the stored k, d_lower and d_exact are claims, which fresh compares with the recipe: a forged
    # source is refused in its words, at the first of them in the writer's key order, and the descent of the honest one derives its own params and
    # its record of the source's from the recipe, and verifies
    src, forged, down = tmp_path / "r16.json", tmp_path / "forged.json", tmp_path / "down.json"
    assert main(["construct", "--backend", "rational", "--q", "16", "--j", "1", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    n, params = doc["params"]["n"], doc["params"]
    assert (params["k"], params["d_lower"], params["d_exact"]) == (1, 4, None)
    params.update(k=2, d_lower=7, d_exact=7)
    forged.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(forged)]) == 1
    assert main(["descend", "--in", str(forged), "--out", str(down)]) == 2
    assert capsys.readouterr().err == "error: artifact: params.d_exact is 7, but the rational backend at q = 16, j = 1 writes null\n"
    assert not down.exists()
    assert main(["descend", "--in", str(src), "--out", str(down)]) == 0
    descended = json.loads(down.read_text())
    assert (descended["params"]["d_lower"], descended["params"]["d_exact"]) == (4, None)
    assert descended["provenance"]["descended_from"]["params"] == {"n": n, "k": 1, "d_lower": 4, "d_exact": None}
    capsys.readouterr()
    assert main(["verify", str(down)]) == 0


def test_cli_decode_sim_refuses_a_forged_c_h(tmp_path, capsys):
    # rational q=16 j=1 with C(H) cut to its first row: every one of these 5 weight-1
    # decodes was marked unique-guaranteed, and none of them was the planted error
    src = tmp_path / "r16.json"
    assert main(["construct", "--backend", "rational", "--q", "16", "--j", "1", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    doc["matrices"]["c_h"] = doc["matrices"]["c_h"][:1]
    forged, out = tmp_path / "forged.json", tmp_path / "trials.jsonl"
    forged.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = ["--trials", "5", "--weight", "1", "--seed", "3", "--out", str(out)]
    assert main(["decode-sim", "--artifact", str(forged), *argv]) == 2
    assert capsys.readouterr().err == (
        "error: artifact: matrices.c_h is not what the rational backend at q = 16, j = 1 writes\n")
    assert not out.exists()
    # the control: the honest file certifies and recovers every planted error of the stream
    assert main(["decode-sim", "--artifact", str(src), *argv]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["status"], r["recovered"]) for r in records] == [("unique-guaranteed", True)] * 5
    # a descent given a deg G and a C(H) cut the same way gave 5 likewise false certificates: it
    # is refused in fresh's words, and its honest file, which has no deg G, is refused as a descent
    honest = artifact_mod.to_json(artifact_mod.descend_artifact(artifact_mod.construct_artifact("rational", 8, 1)))
    doc = json.loads(honest)
    doc["params"]["deg_g"] = 0
    doc["matrices"]["c_h"] = doc["matrices"]["c_h"][:1]
    out.unlink()
    for text, error in ((json.dumps(doc), "artifact: matrices.c_h is not what the descent to GF(2) of the rational "
                                          "backend at q = 8, j = 1 writes"),
                        (honest, "decode-sim needs a backend artifact with a recorded deg G")):
        forged.write_text(text)
        capsys.readouterr()
        assert main(["decode-sim", "--artifact", str(forged), *argv]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()


def test_cli_verify_reports_a_curve_artifact_of_the_wrong_length(tmp_path, capsys):
    # rational q=16 j=1 (n = 8) recorded as n = 5, every row cut to 2n = 10 entries: the fresh
    # code is made at the backend's length, so the report runs, fails on the stored C(G) and
    # checks nothing else
    path = tmp_path / "r16.json"
    assert main(["construct", "--backend", "rational", "--q", "16", "--j", "1", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["params"]["n"] = 5
    for key in ("c_g", "c_h"):
        doc["matrices"][key] = [row[:10] for row in doc["matrices"][key]]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert [c["status"] for c in report["checks"]] == ["fail"] + ["skipped"] * 6
    assert report["checks"][0]["detail"] == "artifact: matrices.c_g is not what the rational backend at q = 16, j = 1 writes"


def test_cli_too_deep_file_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 400_000)  # json.loads recurses once per bracket
    assert main(["verify", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: input too deep or too large: maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string\n")


def _empty_descent(n):
    """The binary descent of hermitian q=2 j=1 recorded with length n and empty matrices."""
    doc = json.loads(artifact_mod.to_json(artifact_mod.descend_artifact(
        artifact_mod.construct_artifact("hermitian", 2, 1))))
    doc["params"]["n"] = n
    doc["matrices"] = {"c_g": [], "c_h": []}
    return json.dumps(doc)


def test_cli_a_bare_memory_error_is_named(tmp_path, capsys, monkeypatch):
    # numpy and the allocator may raise MemoryError with no text: its type is the reason
    def refuse(path):
        raise MemoryError()

    monkeypatch.setattr(artifact_mod, "load", refuse)
    assert main(["verify", str(tmp_path / "any.json")]) == 2
    assert capsys.readouterr() == ("", "error: input too deep or too large: MemoryError\n")


def test_cli_refuses_a_file_larger_than_memory_unread(tmp_path, capsys, monkeypatch):
    import os

    # a sparse file a byte larger than the host's memory, with no recipe at its head: it cannot be
    # proven by writing it again, and json.loads would need more memory than the host has
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    huge = tmp_path / "huge.json"
    with open(huge, "wb") as fh:
        fh.truncate(memory + 1)
    monkeypatch.setattr(artifact_mod.json, "loads", lambda *args: pytest.fail("nothing past the head is read"))
    for argv in (["verify", str(huge)], ["descend", "--in", str(huge), "--out", str(tmp_path / "down.json")]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: artifact: {huge} is {memory + 1} bytes, more than the "
                                           f"{memory} bytes of memory on this host, and not the file its "
                                           "recipe writes: it cannot be read\n")
    assert os.stat(huge).st_blocks == 0  # still sparse: nothing was written


def test_cli_verify_of_an_empty_descent_reduces_nothing(tmp_path, capsys):
    import tracemalloc

    # n = 2000000 with empty matrices: no code its recipe makes, so no stored row is reduced and no
    # 4000000-wide kernel is built; the report fails, where reducing the stored codes ran out of memory
    path = tmp_path / "empty.json"
    path.write_text(_empty_descent(2_000_000))
    tracemalloc.start()
    try:
        assert main(["verify", str(path), "--budget", "1"]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["matrices-recompute"]["detail"] == (
        "artifact: matrices.c_g is not what the descent to GF(2) of the hermitian backend at q = 2, j = 1 writes")
    assert checks["dual-equality"] == {
        "name": "dual-equality", "status": "skipped",
        "detail": "the stored matrices.c_g is not the recipe's: nothing else is checked"}


def test_cli_descend_refuses_a_code_below_rank_n(tmp_path, capsys):
    # a zero C(G) cannot contain its symplectic dual, the whole space: no artifact of k = -12.  It
    # is refused as a code that is not the fresh one, at C(G), the first table in the writer's key order
    src, out = tmp_path / "r8.json", tmp_path / "down.json"
    assert main(["construct", "--backend", "rational", "--q", "8", "--j", "1", "--out", str(src)]) == 0
    doc = json.loads(src.read_text())
    doc["matrices"] = {"c_g": [], "c_h": []}
    src.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["descend", "--in", str(src), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: artifact: matrices.c_g is not what the rational backend at q = 8, j = 1 writes\n")
    assert not out.exists()


def test_cli_directory_paths_exit_2(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    assert main(["construct", "--backend", "rational", "--q", "4", "--j", "0",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")


def test_cli_internal_errors_exit_2(tmp_path, capsys, monkeypatch):
    from agstab import decoder

    art = str(tmp_path / "r16.json")
    assert main(["construct", "--backend", "rational", "--q", "16", "--j", "1", "--out", art]) == 0
    capsys.readouterr()
    # a wrong syndrome after the swap reduction breaks decode_syndromes' invariant
    with monkeypatch.context() as m:
        m.setattr(decoder, "_syndromes", lambda field, vectors, rows: vectors[:, :0])
        assert main(["decode-sim", "--artifact", art, "--trials", "1", "--weight", "1",
                     "--seed", "1", "--out", str(tmp_path / "t.jsonl")]) == 2
    assert capsys.readouterr().err == "error: internal error: swap reduction produced a wrong syndrome\n"


# x^6 z and x z^5 (exponent rows (6 - 7, 1) and (1 - 7, 5), x shifted by q^2/2 - 1 = 7) have the
# same pole order 29 at hermitian q = 4, so a table with one in place of the other keeps the degree
# argument; the Lucas expansion of x z^5 o sigma needs x z^4, which L(H) does not hold
SAME_POLE = {(-1, 1): (-6, 5)}


@pytest.mark.parametrize("mutant,message", [
    ("gram", "the Gram of C(G) and C(H) is not zero"),
    ("prefix", "the L(H) table is not a prefix of the L(G) one"),
    ("closure", "the L(H) table is not closed under the Lucas expansion of h o sigma"),
])
def test_a_failed_proof_is_an_internal_error(tmp_path, capsys, monkeypatch, mutant, message):
    from agstab.curves import HermitianBackend, certify

    src, out = str(tmp_path / "h41.json"), tmp_path / "again.json"
    assert main(["construct", "--backend", "hermitian", "--q", "4", "--j", "1", "--out", src]) == 0
    capsys.readouterr()
    if mutant == "gram":  # one nonzero entry
        real_gram = HermitianBackend.gram

        def gram(self, left, right):
            out = real_gram(self, left, right)
            out[0, -1] ^= 1
            return out

        monkeypatch.setattr(HermitianBackend, "gram", gram)
    else:  # the L(H) table alone, or both tables, with x z^5 in place of x^6 z
        real_basis = HermitianBackend.rr_basis
        monkeypatch.setattr(HermitianBackend, "rr_basis", lambda self, j, which="g": (
            real_basis(self, j, which) if mutant == "prefix" and which == "g"
            else [SAME_POLE.get(e, e) for e in real_basis(self, j, which)]))
    error = f"{message} at j=1 on HermitianBackend(q=4, gamma=1)"
    with pytest.raises(AssertionError) as raised:
        certify(HermitianBackend(4), 1)
    assert str(raised.value) == error
    # a broken theorem is no failed check: construct writes nothing, and verify reports nothing
    for argv in (["construct", "--backend", "hermitian", "--q", "4", "--j", "1", "--out", str(out)],
                 ["verify", src]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: internal error: {error}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--weight", -1), ("--trials", -3), ("--budget", -2)])
def test_cli_negative_counts_exit_2(tmp_path, capsys, flag, value):
    art = str(tmp_path / "r16.json")
    assert main(["construct", "--backend", "rational", "--q", "16", "--j", "1", "--out", art]) == 0
    capsys.readouterr()

    def run(count):
        if flag == "--budget":
            return main(["verify", art, "--budget", str(count)])
        counts = {"--trials": 2, "--weight": 1, flag: count}
        return main(["decode-sim", "--artifact", art, "--seed", "1", "--out", str(tmp_path / "t.jsonl"),
                     "--trials", str(counts["--trials"]), "--weight", str(counts["--weight"])])

    assert run(value) == 2
    assert capsys.readouterr().err == f"error: {flag} must be >= 0, got {value}\n"
    assert run(0) == 0  # zero stays valid


def test_cli_calls_in_one_process_share_no_state(tmp_path, capsys):
    # the parser is built once per process; each call parses into its own namespace
    from agstab import cli

    art, out = str(tmp_path / "r16.json"), tmp_path / "trials.jsonl"
    assert main(["construct", "--backend", "rational", "--q", "16", "--j", "1", "--out", art]) == 0
    assert cli.build_parser() is cli.build_parser()
    argv = ["decode-sim", "--artifact", art, "--trials", "3", "--weight", "1", "--seed", "2"]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0   # no --out now: the records go to stdout, and the file is not rewritten
    assert capsys.readouterr().out == out.read_text() != ""
    out.unlink()
    assert main(argv) == 0 and not out.exists()
    capsys.readouterr()
    assert main(["verify", art, "--budget", "2"]) == 0
    budget = json.loads(capsys.readouterr().out)
    assert main(["verify", art]) == 0   # no budget now: the recorded bound is recomputed, not swept
    exact = json.loads(capsys.readouterr().out)
    assert budget != exact and main(["verify", art]) == 0 and json.loads(capsys.readouterr().out) == exact


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--backend", "toric", "--q", "4", "--j", "0", "--out", "x"])
    assert exc.value.code == 2


def test_cli_descend(tmp_path, capsys):
    src = tmp_path / "src.json"
    dst = tmp_path / "dst.json"
    main(["construct", "--backend", "hermitian", "--q", "2", "--j", "1", "--out", str(src)])
    capsys.readouterr()
    assert main(["descend", "--in", str(src), "--out", str(dst)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n"] == 6 and info["k"] == 2
    assert main(["verify", str(dst)]) == 0


def test_cli_decode_sim_reproducible(tmp_path, capsys):
    # 100 weight-1 trials in the guarantee region: 100/100 exact recoveries
    art = tmp_path / "r16.json"
    main(["construct", "--backend", "rational", "--q", "16", "--j", "1", "--out", str(art)])
    capsys.readouterr()
    o1, o2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["decode-sim", "--artifact", str(art), "--trials", "100",
                 "--weight", "1", "--seed", "7", "--out", str(o1)]) == 0
    assert main(["decode-sim", "--artifact", str(art), "--trials", "100",
                 "--weight", "1", "--seed", "7", "--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    records = [json.loads(line) for line in o1.read_text().splitlines()]
    assert len(records) == 100
    assert all(r["recovered"] for r in records)
    assert all(r["status"] == "unique-guaranteed" for r in records)


@pytest.mark.parametrize("weight", [0, 1])
def test_cli_decode_sim_with_no_checks(tmp_path, capsys, weight):
    # at j = max_j, C(H) = 0 and C(G) is the whole space: every syndrome is empty, and the
    # least vector with the empty syndrome is the zero vector (t_cap = 0 here, so a
    # weight-1 error lies outside the guarantee region)
    art, out = str(tmp_path / "r8.json"), tmp_path / "trials.jsonl"
    assert main(["construct", "--backend", "rational", "--q", "8", "--j", "4", "--out", art]) == 0
    capsys.readouterr()
    assert main(["decode-sim", "--artifact", art, "--trials", "3", "--weight", str(weight), "--seed", "2",
                 "--out", str(out)]) == 0
    # the zero vector weighs 0, inside the region: a true certificate of the least preimage
    assert capsys.readouterr().err == (f"recovered {3 if weight == 0 else 0}/3; status unique-guaranteed 3, "
                                       "found-min 0, budget-exhausted 0; decoder none 3\n")
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 3
    for r in records:
        assert r["planted_weight"] == weight and r["syndrome"] == []
        assert r["decoded"] == [0] * 8 and r["decoded_weight"] == 0
        assert r["recovered"] == (weight == 0)
        if weight == 0:
            assert r["status"] == "unique-guaranteed"


def test_cli_verify_budget_mode(tmp_path, capsys):
    out = tmp_path / "r16.json"
    main(["construct", "--backend", "rational", "--q", "16", "--j", "1", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", str(out), "--budget", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    dist = next(c for c in report["checks"] if c["name"] == "distance-bound")
    assert dist["status"] == "pass" and "weight <= 2" in dist["detail"]


def test_cli_construct_with_gamma(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["construct", "--backend", "hermitian", "--q", "4", "--j", "2",
                 "--gamma", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["backend"]["gamma"] == 3


def test_cli_bounds_csv(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    assert main(["bounds", "--curve", "both", "--delta-min", "0.001",
                 "--delta-max", "0.07", "--step", "0.001", "--out", str(out)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["rows"] == 140
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 141


# ---------------------------------------------------------------------------
# exact-distance reports
# ---------------------------------------------------------------------------

# (backend, q, j, descended to GF(2)) -> (d_exact, SHA-256 of the `verify
# --exact-distance` stdout), pinned from the codeword-enumeration search the
# weight sweeps replaced; every code here has q^dim <= 2^24
EXACT_REPORTS = {
    ("rational", 4, 0, False): (None, "6e8e614f6ca19e1eff4846381760552862d4ea9fae15ecaa743ecbc85f822f69"),
    ("rational", 4, 0, True): (None, "a48a7ec6cb0d336e937768665da30e378c59f589069a4e176fc4677a572fb98e"),
    ("rational", 4, 1, False): (1, "3f0302cbca03d07c01208c4731cdcd83a0dd7c69960c24fbdc8b29e2b08e07dd"),
    ("rational", 4, 1, True): (2, "f60c8472679ebfbe5d1b54ef4b8190d9af23637b75022995471bfa335ddd5aa8"),
    ("rational", 4, 2, False): (1, "e5322ee45f15f2f798ee295bca0dc2432324284017cc506d3c1126fd4c9a6f46"),
    ("rational", 4, 2, True): (1, "4b9f1c67b43325647eef698b731f67ae73c302aa0659f6bb9f4e58692bcb0d61"),
    ("rational", 8, 0, False): (None, "9e4d4ee582897bec045007c6225a3bbbb77661d63c6aa5035c391e02962de1ef"),
    ("rational", 8, 0, True): (None, "6cc4158c595f2a9fddef1b4b0344c20ba53773b911cc8ea4ea6656688c7fd4d6"),
    ("rational", 8, 1, False): (2, "8bdfce6830959de6b114f5452a1db4596acbf33ca9a5b27368c81320eeabac70"),
    ("rational", 8, 1, True): (2, "08753739ec8ad159d661f20f5e6764432018954907214922a4a47be20a9bfd71"),
    ("rational", 8, 2, False): (2, "391792a0be6500b4a72613e292c9b7789c282c708ba984cbe8e479e11da095c2"),
    ("rational", 8, 2, True): (2, "4ad397e08f56b35f97b961296d6e5901a4f24ede3c3d09f4747a7c2d914d0772"),
    ("rational", 8, 3, False): (1, "30d92b580bb4a4cbe9512ae3319a519a6f2b25f0576bf395096340ecf97418ec"),
    ("rational", 8, 3, True): (1, "ff35e80b002a5f0ceed5a0bb23c454ffc09595c4168ac2b4ead690aee14db135"),
    ("rational", 8, 4, False): (1, "e7fe7282afd0931fa00a737a0ae89eb0cc39b7f6071e792bdf68114c2eb2432a"),
    ("rational", 8, 4, True): (1, "57bb1c8df0ae56afdc194b4c5597991f21e95d226cf8de6d4a6fbdd7f7933cdd"),
    ("hermitian", 2, 0, False): (None, "e87b59fe0b0e1a0cdf817892ba92e77b2fb533ac0a6727435e8d48e05295ff0a"),
    ("hermitian", 2, 0, True): (None, "a96c2715a2f57f698ae30505cf287fa1fe684e76a1e13891114de72e01b95d6a"),
    ("hermitian", 2, 1, False): (1, "86dd84edf96a8adbf9c5c049861107a5ef764f3159a85be3e8ba51285a74c30c"),
    ("hermitian", 2, 1, True): (2, "132d7c5c5c97543033e4e554d68fee8a1589a1c6f87f913790bdcb40a652006f"),
    ("hermitian", 2, 2, False): (1, "6259076a4546762fdca229867778cd0118d405db1ffffda62d60cb5b7bb6522e"),
    ("hermitian", 2, 2, True): (2, "1adf181a26aabde98b377893d7e89183f086d42fa38b2cec76366f3e265954c8"),
}


@pytest.mark.parametrize("case", sorted(EXACT_REPORTS, key=str),
                         ids=lambda c: f"{c[0]}-q{c[1]}-j{c[2]}" + ("-descended" if c[3] else ""))
def test_exact_distance_reports_are_pinned(tmp_path, capsys, case):
    kind, q, j, descended = case
    path = str(tmp_path / "code.json")
    assert main(["construct", "--backend", kind, "--q", str(q), "--j", str(j), "--out", path]) == 0
    if descended:
        assert main(["descend", "--in", path, "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", path, "--exact-distance"]) == 0
    out = capsys.readouterr().out
    d_exact, digest = EXACT_REPORTS[case]
    assert json.loads(out).get("d_exact") == d_exact
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# malformed artifacts: one line on stderr and exit 2
# ---------------------------------------------------------------------------

def _drop(doc, *path):
    *head, last = path
    for key in head:
        doc = doc[key]
    del doc[last]


def _put(doc, value, *path):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


MALFORMED = {
    "missing-key": (lambda d: _drop(d, "params", "n"), "artifact: missing key 'params.n'"),
    "missing-block": (lambda d: _drop(d, "matrices"), "artifact: missing key 'matrices'"),
    "wrong-type": (lambda d: _put(d, "8", "params", "n"), "artifact: params.n must be an integer, got a string"),
    "bool-as-int": (lambda d: _put(d, True, "params", "k"), "artifact: params.k must be an integer, got a boolean"),
    "bool-entry": (lambda d: _put(d, True, "matrices", "c_h", 0, 0),
                   "artifact: matrices.c_h[0] holds a boolean, expected field-element integers"),
    "not-an-object": (lambda d: _put(d, [], "field"), "artifact: field must be an object, got a list"),
    "ragged-rows": (lambda d: d["matrices"]["c_g"][2].pop(), "artifact: matrices.c_g[2] has length 7, expected 2n = 8"),
    "entry-out-of-range": (lambda d: _put(d, 8, "matrices", "c_g", 1, 3),
                           "artifact: matrices.c_g[1] holds 8, outside [0, 8)"),
    "negative-entry": (lambda d: _put(d, -1, "places", 0, 0), "artifact: places[0] holds -1, outside [0, 8)"),
    "width-not-2n": (lambda d: _put(d, 5, "params", "n"), "artifact: matrices.c_g[0] has length 8, expected 2n = 10"),
    # integers JSON carries past the reader's bound: 2n past Python's 4300-digit limit, a width of 2^63
    # that no array holds, and a q of 4000 digits
    "n-of-4300-digits": (lambda d: _put(d, 5 * 10 ** 4299, "params", "n"),
                         "artifact: params.n is an integer of 14284 bits, outside [-2^62, 2^62)"),
    "n-past-any-array": (lambda d: (_put(d, 1 << 62, "params", "n"), _put(d, [], "matrices", "c_g"),
                                    _put(d, [], "matrices", "c_h")),
                         "artifact: params.n is an integer of 63 bits, outside [-2^62, 2^62)"),
    "q-of-4000-digits": (lambda d: _put(d, 10 ** 3999, "backend", "q"),
                         "artifact: backend.q is an integer of 13285 bits, outside [-2^62, 2^62)"),
    "entry-of-4300-digits": (lambda d: _put(d, -5 * 10 ** 4299, "matrices", "c_h", 2, 1),
                             "artifact: matrices.c_h[2][1] is an integer of 14284 bits, outside [-2^62, 2^62)"),
}


@pytest.mark.parametrize("name, exact", [pytest.param(name, exact, id=name + "-exact" * exact)
                                         for exact in (False, True) for name in sorted(MALFORMED)])
def test_cli_malformed_artifact_exits_2_naming_the_key(tmp_path, capsys, name, exact):
    # "-exact" writes to_json's layout, which from_json parses without json.loads when it can; every
    # command reads the file so, and writes nothing
    path, out = tmp_path / "bad.json", tmp_path / "out.json"
    assert main(["construct", "--backend", "rational", "--q", "8", "--j", "1", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    corrupt, message = MALFORMED[name]
    corrupt(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n" if exact else json.dumps(doc))
    capsys.readouterr()
    for argv in (["verify", str(path)], ["descend", "--in", str(path), "--out", str(out)],
                 ["decode-sim", "--artifact", str(path), "--trials", "1", "--weight", "1", "--seed", "1",
                  "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize("flag, value, error", [
    ("--q", 10 ** 3999, "--q is an integer of 13285 bits, outside [-2^62, 2^62)"),
    ("--j", -(1 << 62) - 1, "--j is an integer of 63 bits, outside [-2^62, 2^62)"),
    ("--gamma", 1 << 62, "--gamma is an integer of 63 bits, outside [-2^62, 2^62)"),
    # the control: within the bound the backend answers in its own words
    ("--q", (1 << 62) - 1, "q must be a power of 2 and >= 4, got 4611686018427387903"),
], ids=["q", "j", "gamma", "q-within"])
def test_construct_names_the_option_of_an_integer_past_the_bound(tmp_path, capsys, flag, value, error):
    out = tmp_path / "x.json"
    argv = ["construct", "--backend", "rational", "--q", "8", "--j", "1", flag, str(value), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n") and not out.exists()


@settings(max_examples=150)
@given(st.data())
def test_from_json_rejects_structural_damage_with_value_error(data):
    """Any key deleted or any value replaced by another JSON value either still
    parses or raises ValueError; never another exception."""
    doc = json.loads(artifact_mod.to_json(artifact_mod.construct_artifact("hermitian", 2, 1)))
    paths = []

    def walk(node, path):
        keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            paths.append(path + (key,))
            walk(node[key], path + (key,))

    walk(doc, ())
    path = data.draw(st.sampled_from(paths))
    junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 1 << 70), st.floats(allow_nan=False),
                     st.text(max_size=3), st.lists(st.integers(-1, 5), max_size=3), st.just({}))
    if data.draw(st.booleans()) and isinstance(path[-1], str):
        _drop(doc, *path)
    else:
        _put(doc, data.draw(junk), *path)
    try:
        artifact_mod.from_json(json.dumps(doc))
    except ValueError:
        pass
