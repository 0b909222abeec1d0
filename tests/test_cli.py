import json
import math

import pytest

from dhtlab.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_kernels_csv_schema(capsys):
    rc, out = run_cli(capsys, "kernels", "--kernel", "J", "--radius", "10")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# dhtlab/1 kernels config=")
    assert lines[1] == "n,value"
    rows = lines[2:]
    assert len(rows) == 21
    zero_row = [r for r in rows if r.startswith("0,")]
    assert zero_row == ["0,0.0"]


def test_kernels_json_and_determinism(capsys):
    rc1, out1 = run_cli(capsys, "kernels", "--kernel", "H", "--radius", "4",
                        "--format", "json")
    rc2, out2 = run_cli(capsys, "kernels", "--kernel", "H", "--radius", "4",
                        "--format", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical rerun
    doc = json.loads(out1)
    assert doc["schema"] == "dhtlab/1"
    assert doc["config"]["kernel"] == "H"
    vals = {r["n"]: r["value"] for r in doc["results"]}
    assert vals[1] == pytest.approx(1.0 / math.pi, abs=1e-15)


def test_kernels_output_file(tmp_path, capsys):
    path = tmp_path / "k.csv"
    rc, out = run_cli(capsys, "kernels", "--kernel", "ADP", "--radius", "2",
                      "--output", str(path))
    assert rc == 0 and out == ""
    assert path.read_text().splitlines()[1] == "n,value"


@pytest.mark.parametrize("radius", [0, 31, 32, 700, 5000])
def test_kernel_dumps_render_the_array_window(capsys, radius):
    # a dump evaluates dhtlab.kernel_entries one index at a time; its bytes
    # are those of a rendering of Kernel.window, the library's array path
    from dhtlab.kernels import KERNELS
    ns = range(-radius, radius + 1)
    for name, kernel in KERNELS.items():
        vals = [float(v) for v in kernel.window(radius)]
        for fmt in ("csv", "json"):
            config = {"kernel": name, "radius": radius, "format": fmt}
            if fmt == "json":
                want = json.dumps({"schema": "dhtlab/1", "command": "kernels",
                                   "config": config,
                                   "results": [{"n": n, "value": v} for n, v in zip(ns, vals)]},
                                  indent=2) + "\n"
            else:
                want = "\n".join([f"# dhtlab/1 kernels config={json.dumps(config, sort_keys=True)}",
                                  "n,value", *(f"{n},{v!r}" for n, v in zip(ns, vals))]) + "\n"
            got = run_cli(capsys, "kernels", "--kernel", name, "--radius", str(radius),
                          "--format", fmt)
            assert got == (0, want), (name, fmt)


def test_norms_csv_header(capsys):
    rc, out = run_cli(capsys, "norms", "--kernel", "H", "--p", "2",
                      "--radii", "16,32", "--max-iter", "200")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1] == "kernel,p,N,estimate,iterations,converged"
    first = lines[2].split(",")
    assert first[0] == "H" and int(first[2]) == 16
    vals = [float(ln.split(",")[3]) for ln in lines[2:]]
    assert vals[0] <= vals[1] <= 1.0 + 1e-9


def test_factorize_json(capsys):
    rc, out = run_cli(capsys, "factorize", "--window", "64",
                      "--mass-tol", "1e-6")
    assert rc == 0
    doc = json.loads(out)
    res = doc["results"]
    assert set(res) == {"alpha", "window", "G", "K", "mass_defect",
                        "neumann_terms"}
    assert len(res["K"]) == 129
    assert res["alpha"] == pytest.approx(0.7705695443841257, abs=1e-9)


def test_verify_exit_codes(capsys, monkeypatch):
    from dhtlab import cli as climod
    from dhtlab.identities import IdentityReport

    good = IdentityReport("ok", 1.0, 1.0, 0.0, 1e-9, True)
    bad = IdentityReport("broken", 1.0, 2.0, 1.0, 1e-9, False)

    import dhtlab.identities as ident
    monkeypatch.setattr(ident, "run_section3_suite", lambda: [good])
    rc, out = run_cli(capsys, "verify")
    assert rc == 0
    assert json.loads(out)["results"][0]["pass"] is True

    monkeypatch.setattr(ident, "run_section3_suite", lambda: [good, bad])
    rc, out = run_cli(capsys, "verify")
    assert rc == 1


def test_verify_real_suite_serializes(capsys):
    # the real (unmocked) suite must serialize cleanly and pass
    rc, out = run_cli(capsys, "verify")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["results"]) > 70
    assert all(isinstance(r["pass"], bool) for r in doc["results"])


def test_weaktype_jsonl(capsys):
    rc, out = run_cli(capsys, "weaktype", "--family", "random_signs",
                      "--budget", "3", "--seed", "1", "--window", "2048")
    assert rc == 0
    lines = out.strip().splitlines()
    head = json.loads(lines[0])
    assert head["command"] == "weaktype"
    assert head["davis_constant"] == pytest.approx(1.3468852519994063,
                                                   abs=1e-9)
    rep = json.loads(lines[1])
    assert {"sequence_id", "ratio", "best_lambda", "l1_norm"} <= set(rep)


def test_mc_functional_json(capsys):
    rc, out = run_cli(capsys, "mc", "--mode", "functional", "--n", "0",
                      "--y0", "4", "--paths", "300", "--max-time", "500")
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["x0"] == 0.0
    assert abs(doc["results"]["mean"]) <= 3 * doc["results"]["std_error"] + 1e-18


def test_mc_heavy_gate(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--paths", "50000"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--y0", "50"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--mode", "occupation", "--paths", "1"],     # no standard error
    ["--mode", "occupation", "--paths", "0"],
    ["--paths", "0"],
    ["--dt", "1e-3"],                             # dt > kill_eps^2 / 4
    ["--y0", "-1"],
    ["--x0", "nan"],                              # a NaN path never times out
    ["--mode", "occupation", "--paths", "2", "--max-time", "0.001"],  # no spread
    ["--max-time", "inf"],                        # a path may never retire
    ["--kill-eps", "inf"],                        # every path absorbed at once
])
def test_mc_bad_input_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["mc", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["kernels", "--kernel", "H", "--radius", "-3"],
    ["factorize", "--window", "0"],
    ["factorize", "--mass-tol", "0"],
    ["norms", "--kernel", "H", "--p", "1", "--radii", "16"],
    ["norms", "--kernel", "H", "--p", "2", "--radii", "0"],
    ["norms", "--kernel", "H", "--p", "2", "--radii", "16", "--max-iter", "0"],
    ["weaktype", "--budget", "0"],
    ["weaktype", "--window", "0"],
    ["weaktype", "--window", "10"],               # support reaches the edge
    ["weaktype", "--family", "discretized_bumps", "--window", "7"],  # no bump fits
    ["kernels", "--kernel", "J", "--radius", str(2 ** 62)],  # 2^63 + 1 entries
    ["norms", "--kernel", "H", "--p", "2", "--radii", ""],
    ["norms", "--kernel", "H", "--p", "2", "--radii", ","],
])
def test_bad_input_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_unknown_kernel_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kernels", "--kernel", "NOPE"])
    assert exc.value.code == 2


def test_unknown_flag_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["kernels", "--kernel", "H", "--frobnicate"])
    assert exc.value.code == 2


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


# every subcommand at small documented flags; CSV runs carry their config
# as JSON in the header line
@pytest.mark.parametrize("argv", [
    ["kernels", "--kernel", "J", "--radius", "10", "--format", "json"],
    ["kernels", "--kernel", "E", "--radius", "10"],
    ["factorize", "--window", "64", "--mass-tol", "1e-6"],
    ["norms", "--kernel", "K", "--p", "4", "--radii", "16,300",
     "--max-iter", "50", "--format", "json"],
    ["norms", "--kernel", "J", "--p", "1.5", "--radii", "16", "--max-iter", "50"],
    ["verify"],
    ["weaktype", "--budget", "3", "--seed", "1", "--window", "2048"],
    ["mc", "--n", "0", "--y0", "4", "--paths", "300", "--max-time", "500"],
    ["mc", "--mode", "occupation", "--paths", "2"],
    ["norms", "--kernel", "H", "--p", "2", "--radii", "16,300", "--format", "json"],
])
def test_output_is_strict_json(capsys, argv):
    rc, out = run_cli(capsys, *argv)
    assert rc == 0
    if out.startswith("# "):
        strict_json(out.splitlines()[0].split(" config=", 1)[1])
    else:
        for line in ([out] if out.startswith("{\n") else out.splitlines()):
            strict_json(line)


def test_mc_occupation_unvisited_cells_have_no_verdict(capsys):
    # two paths leave cells unvisited: their z is null, not Infinity, and
    # the aggregates run over the scored cells
    rc, out = run_cli(capsys, "mc", "--mode", "occupation", "--paths", "2")
    assert rc == 0
    res = strict_json(out)["results"]
    zs = [v for row in res["z"] for v in row]
    scored = [abs(v) for v in zs if v is not None]
    assert 0 < len(scored) < len(zs)
    assert res["max_abs_z"] == max(scored)
    assert res["frac_within_3"] == sum(v <= 3.0 for v in scored) / len(zs)
    assert math.isfinite(res["chi2_z"]) and math.isfinite(res["total_z"])
