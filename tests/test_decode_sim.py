"""decode-sim streams pinned byte for byte, and decoded in blocks of trials.

The digests (SHA-256 of stdout) and stderr lines were taken from the
per-trial decoder, before decode-sim decoded its trials in blocks; any
change to a record, the summary line or an exit code shows here.
"""

import hashlib
import json

import pytest

from agstab import cli, decoder
from agstab.cli import main
from agstab.symplectic import _SyndromeSearch

# (backend, q, j, trials, weight, seed) -> (SHA-256 of stdout, stderr)
STREAMS = {
    # inside the guarantee region (t_cap = 1), and at weight 2 beyond it
    ("rational", 16, 1, 40, 1, 7): (
        "709177f24b67aa724b0a2b2aabb7e0bae9ae7d158c895cddad39f4da315c4b13",
        "recovered 40/40; status unique-guaranteed 40, found-min 0, budget-exhausted 0; decoder power-sums 40\n"),
    ("rational", 16, 1, 40, 2, 7): (
        "c0ee53b70a5f105b6fe95d039b8552b1bd5f4e0bd7c756b4e24e5b0a468be01d",
        "recovered 0/40; status unique-guaranteed 0, found-min 0, budget-exhausted 40; decoder power-sums 40\n"),
    ("rational", 32, 4, 20, 3, 11): (
        "872da525caee49a42a0be48108e73373b81d9ec1cef198bf20dac72f2614800d",
        "recovered 20/20; status unique-guaranteed 20, found-min 0, budget-exhausted 0; decoder power-sums 20\n"),
    # trial 2 plants an error on the column of the point 0, in both halves
    ("rational", 64, 4, 12, 3, 1): (
        "0f9647a330ea235d42c05737cbf96b45fa8d8441394af5818fe805113b4db660",
        "recovered 12/12; status unique-guaranteed 12, found-min 0, budget-exhausted 0; decoder power-sums 12\n"),
    ("hermitian", 4, 5, 6, 1, 3): (
        "2925f3eb12ec163334874f1d1b9bc85b56ba23cece2ea5ee3807207731008cf7",
        "recovered 6/6; status unique-guaranteed 6, found-min 0, budget-exhausted 0; decoder search 6\n"),
    ("hermitian", 2, 1, 20, 1, 5): (
        "182819c31b981691845ef1305a6876688faa43c03fee8da22d3059156b876a44",
        "recovered 0/20; status unique-guaranteed 3, found-min 0, budget-exhausted 17; decoder search 20\n"),
}
EMPTY = hashlib.sha256(b"").hexdigest()


def _construct(tmp_path, kind: str, q: int, j: int) -> str:
    path = str(tmp_path / f"{kind}-q{q}-j{j}.json")
    assert main(["construct", "--backend", kind, "--q", str(q), "--j", str(j), "--out", path]) == 0
    return path


def _decode_sim(capsys, path: str, trials: int, weight: int, seed: int) -> tuple[int, str, str]:
    capsys.readouterr()
    code = main(["decode-sim", "--artifact", path, "--trials", str(trials), "--weight", str(weight),
                 "--seed", str(seed)])
    got = capsys.readouterr()
    return code, hashlib.sha256(got.out.encode()).hexdigest(), got.err


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_decode_sim_stream_is_pinned(tmp_path, capsys, stream):
    kind, q, j, trials, weight, seed = stream
    path = _construct(tmp_path, kind, q, j)
    assert _decode_sim(capsys, path, trials, weight, seed) == (0, *STREAMS[stream])


def test_decode_sim_refusals_are_pinned(tmp_path, capsys):
    # hermitian q=8: a weight-2 error needs the Hamming search at weight 3, which the cap refuses
    path = _construct(tmp_path, "hermitian", 8, 1)
    refusal = "error: weight 3: the right half has C(504,2) * 63^2 = 503094564 rows, over the cap 16777216\n"
    assert _decode_sim(capsys, path, 1, 2, 1) == (2, EMPTY, refusal)
    # here trial 0 decodes at Hamming weight 2 and trial 1 is refused: its record is written first
    assert _decode_sim(capsys, path, 6, 2, 37) == (
        2, "aefa902485257a218a57149ed4619ad509926f39039dd6892d287b74e8a109e5", refusal)
    # a C(H) cut to its first row is not the backend's C(H)
    src = _construct(tmp_path, "rational", 16, 1)
    with open(src) as fh:
        doc = json.load(fh)
    doc["matrices"]["c_h"] = doc["matrices"]["c_h"][:1]
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    assert _decode_sim(capsys, str(forged), 5, 1, 3) == (
        2, EMPTY, "error: artifact: matrices.c_h is not what the rational backend at q = 16, j = 1 writes\n")


@pytest.mark.parametrize("kind, q, j, weight", [("rational", 16, 1, 1), ("rational", 16, 1, 2),
                                                ("rational", 64, 4, 3), ("hermitian", 4, 5, 1)])
def test_blocks_of_trials_write_the_same_stream(tmp_path, capsys, monkeypatch, kind, q, j, weight):
    # trials = B - 1, B and B + 1 with B = 4, against the same calls in one block each
    path = _construct(tmp_path, kind, q, j)
    whole = {trials: _decode_sim(capsys, path, trials, weight, 8) for trials in (3, 4, 5)}
    monkeypatch.setattr(cli, "_TRIALS", 4)
    assert {trials: _decode_sim(capsys, path, trials, weight, 8) for trials in (3, 4, 5)} == whole
    monkeypatch.setattr(cli, "_TRIALS", 1)
    assert _decode_sim(capsys, path, 5, weight, 8) == whole[5]


def test_a_hermitian_stream_builds_each_half_once(tmp_path, capsys, monkeypatch):
    # weight 1 decodes at Hamming weight 1 or 2: the halves of sizes 0 and 1, each built on the
    # first trial that needs it and kept on the kernel for every later trial
    path = _construct(tmp_path, "hermitian", 4, 5)
    built = []
    real = _SyndromeSearch._half
    monkeypatch.setattr(_SyndromeSearch, "_half",
                        lambda self, support: built.append(support.shape) or real(self, support))
    decoder._hamming_search.cache_clear()
    assert _decode_sim(capsys, path, 6, 1, 3) == (0, *STREAMS["hermitian", 4, 5, 6, 1, 3])
    # the left half of size 0, the right half of size 1, the left half of size 1
    assert built == [(1, 0), (60, 1), (60, 1)]
    # the control: with no half kept, each trial builds its halves again
    decoder._hamming_search.cache_clear()
    monkeypatch.setattr(_SyndromeSearch, "HELD_BYTES", 0)
    built.clear()
    assert _decode_sim(capsys, path, 6, 1, 3) == (0, *STREAMS["hermitian", 4, 5, 6, 1, 3])
    assert len(built) > 6
    decoder._hamming_search.cache_clear()


@pytest.mark.parametrize("q, j, weight", [(16, 1, 2), (64, 4, 3)])
def test_a_rational_stream_runs_no_elimination(tmp_path, capsys, monkeypatch, q, j, weight):
    # C(H) is the closed-form rref of its power rows, and the power sums are checked against it
    from agstab import linalg

    path = _construct(tmp_path, "rational", q, j)
    eliminated = []
    real = linalg._rref_array
    monkeypatch.setattr(linalg, "_rref_array", lambda field, M: eliminated.append(M.shape) or real(field, M))
    decoder._power_sums.cache_clear()
    assert _decode_sim(capsys, path, 5, weight, 4)[0] == 0
    assert eliminated == []


def test_a_rational_stream_builds_its_closed_form_once(tmp_path, capsys, monkeypatch):
    # decode-sim builds C(H) in closed form, and the decoder reads the points off that basis and
    # builds none of its own: with no memo, a stream of 40 trials builds it once
    from agstab import curves

    path = _construct(tmp_path, "rational", 16, 1)
    built = []
    closed_form = curves._power_basis.__wrapped__
    monkeypatch.setattr(curves, "_power_basis", lambda *args: built.append(args[2]) or closed_form(*args))
    decoder._power_sums.cache_clear()
    for builds in ([7], [7, 7]):  # the control: a second stream builds it again
        assert _decode_sim(capsys, path, 40, 1, 7) == (0, *STREAMS["rational", 16, 1, 40, 1, 7])
        assert built == builds
    decoder._power_sums.cache_clear()
