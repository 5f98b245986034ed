"""``tests/contract.py --compare`` names the stdout lines a moved call changed."""

import contract


def ledger(**stdout_lines):
    # One environment line, then one call per name with the given stdout
    # lines; the digests are the lines themselves, which is all compare reads.
    calls = [
        {"name": name, "exit": 0, "stdout": "".join(lines), "lines": list(lines)}
        for name, lines in stdout_lines.items()
    ]
    return [{"environment": {}}] + calls


def test_moved_calls_name_their_stdout_lines():
    old = ledger(a=["h", "1", "2", "3", "4", "5"], b=["x"], c=["p", "q"])
    new = ledger(a=["h", "1", "2'", "3'", "4", "5'"], b=["x"], c=["p", "q", "r"])
    assert contract.compare(old, new) == (
        3, 1, ["a (stdout lines 3-4, 6)", "c (stdout lines 3)"]
    )


def test_a_ledger_without_line_digests_compares_call_by_call():
    old = ledger(a=["h", "1"], b=["x"])
    for line in old[1:]:
        del line["lines"]
    new = ledger(a=["h", "2"], b=["x"])
    assert contract.compare(old, new) == (2, 1, ["a"])


def test_missing_and_new_calls_are_named():
    assert contract.compare(ledger(a=["1"]), ledger(b=["1"])) == (1, 0, ["b", "a"])


def test_a_ledger_recorded_under_another_kernel_is_noted(capsys):
    old, new = ledger(a=["1"]), ledger(a=["1"])
    old[0]["environment"] = {"blas_runtime": "OpenBLAS 0.3.31 Haswell", "openblas_coretype": None}
    new[0]["environment"] = {"blas_runtime": "OpenBLAS 0.3.31 SkylakeX", "openblas_coretype": None}
    assert contract.compare(old, new) == (1, 1, [])
    notes = capsys.readouterr().err.splitlines()
    assert notes[1] == (
        "note: the ledger was recorded under another BLAS kernel, "
        "'OpenBLAS 0.3.31 Haswell' (OPENBLAS_CORETYPE=None); this run uses "
        "'OpenBLAS 0.3.31 SkylakeX' (OPENBLAS_CORETYPE=None), and digests of rounded "
        "sums may differ"
    )


def test_the_environment_names_the_running_blas_kernel(monkeypatch):
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    env = contract.environment()
    assert env["openblas_coretype"] == "Haswell"
    assert env["blas_runtime"] == "unknown" or "OpenBLAS" in env["blas_runtime"]
