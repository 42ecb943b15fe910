import json

import pytest

from exactspin.cftp import cftp_sample
from exactspin.cli import main
from exactspin.lattice import build_box


def test_sample_prints_the_cftp_result(capsys):
    code = main(["sample", "--model", "swm", "--d", "1", "--radius", "3",
                 "--beta", "0.32", "--seed", "5", "--boundary", "1"])
    out = capsys.readouterr().out
    want = cftp_sample(build_box(1, 3), [(0,)], "swm", 0.32, 5, boundary=1.0)
    assert code == 0
    assert out == want.to_json() + "\n"
    rec = json.loads(out)
    assert rec["timed_out"] is False and rec["target"] == [[0]]


def test_sample_xy_and_timeout(capsys):
    assert main(["sample", "--model", "xy", "--d", "2", "--radius", "1",
                 "--beta", "1.0", "--seed", "2", "--boundary", "+1"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert set(rec["values"]["(0, 0)"]) == {"alpha", "omega", "eta"}
    # a window cap too short to certify is reported, not sampled
    assert main(["sample", "--d", "2", "--radius", "4", "--beta", "0.32",
                 "--seed", "0", "--t-max", "1"]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["timed_out"] is True and rec["values"] is None


def test_sample_at_large_beta(capsys):
    # beta = 1e6 calibrates to digit depth 8
    assert main(["sample", "--model", "swm", "--d", "1", "--radius", "1", "--beta", "1e6",
                 "--boundary", "0.5", "--seed", "0"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["timed_out"] is False and -1.0 <= rec["values"]["(0,)"] <= 1.0


def test_sample_rejects_unknown_model():
    with pytest.raises(SystemExit):
        main(["sample", "--model", "ising", "--beta", "0.5"])


@pytest.mark.parametrize("model,boundary", [
    ("swm", "5"), ("swm", "-1.5"), ("swm", "nan"), ("swm", "inf"), ("swm", "up"),
    ("xy", "1"), ("xy", "-1"),
])
def test_sample_rejects_bad_boundary(model, boundary, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--model", model, "--beta", "0.5", "--boundary", boundary])
    assert exc.value.code == 2
    assert "--boundary" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [
    ("--d", "0"), ("--d", "-2"), ("--d", "1.5"), ("--radius", "0"), ("--radius", "x"),
    ("--beta", "-1"), ("--beta", "nan"), ("--beta", "inf"), ("--beta", "hot"),
    ("--t-max", "nan"), ("--t-max", "inf"), ("--t-max", "0"), ("--t-max", "-4"),
])
def test_sample_rejects_bad_lattice_and_beta(option, value, capsys):
    args = {"--d": "1", "--radius": "2", "--beta": "0.5"}
    args[option] = value
    with pytest.raises(SystemExit) as exc:
        main(["sample", *(tok for kv in args.items() for tok in kv)])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err

