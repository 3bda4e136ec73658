import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import telegraph
from telegraph.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def schema():
    text = resources.files("telegraph").joinpath("schema/output.schema.json").read_text()
    return json.loads(text)


class TestKernelCommand:
    def test_plateau_golden_csv(self, capsys):
        code, out, _ = run_cli(["kernel", "--k", "0", "--c", "1", "--t", "1",
                                "--xmin", "-2", "--xmax", "2", "--n", "5"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "# atom,-1,0.5",
            "# atom,1,0.5",
            "x,kernel_value,kernel_dt_regular",
            "-2,0,0",
            "-1,0.5,0",
            "0,0.5,0",
            "1,0.5,0",
            "2,0,0",
        ]

    def test_center_value_json(self, capsys, schema):
        code, out, _ = run_cli(["kernel", "--k", "4", "--c", "1", "--t", "1",
                                "--xmin", "0", "--xmax", "1", "--n", "2",
                                "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert abs(doc["table"]["rows"][0][1] - 1.1397926511680336) < 1e-12

    def test_zero_time_kernel_column(self, capsys):
        code, out, _ = run_cli(["kernel", "--k", "1", "--c", "1", "--t", "0",
                                "--xmin", "-1", "--xmax", "1", "--n", "9"], capsys)
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()
                if not ln.startswith(("#", "x,"))]
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_invalid_medium_is_usage_error(self, capsys):
        code, _, err = run_cli(["kernel", "--k", "1", "--c", "0"], capsys)
        assert code == 2
        assert "speed" in err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_kernel_writes_no_table(self, capsys, fmt):
        # I0 of 2*alpha*c*t = 1000 exceeds float64: no Infinity tokens
        code, out, err = run_cli(["kernel", "--k", "2000", "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert "float64" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kernel_past_float64_at_negative_time_is_exit_2(self, capsys):
        code, out, err = run_cli(["kernel", "--t", "-1.3", "--k", "1400"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "float64" in err

    def test_non_finite_json_payload_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("telegraph.cli.cmd_kernel",
                            lambda cfg: ({"value": math.inf}, True))
        code, out, err = run_cli(["kernel", "--format", "json"], capsys)
        assert code == 2
        assert out == ""
        assert "JSON" in err


class TestSolveCommand:
    def test_undamped_gaussian_averages(self, capsys, schema):
        code, out, _ = run_cli(["solve", "--init", "gaussian", "--k", "0",
                                "--c", "1", "--t", "1", "--xmin", "-4",
                                "--xmax", "4", "--n", "257",
                                "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        rows = np.asarray(doc["table"]["rows"])
        x, u = rows[:, 0], rows[:, 1]
        expected = 0.5 * (np.exp(-(x + 1) ** 2) + np.exp(-(x - 1) ** 2))
        inside = np.abs(x) <= 2.5
        assert np.max(np.abs(u[inside] - expected[inside])) < 1e-10

    @pytest.mark.parametrize("extra", [[], ["--g-amp", "1", "--g-width", "1e-200"]])
    def test_tiny_width_gaussian_is_exact(self, capsys, extra):
        # the squared offset overflows to inf, and exp(-inf) = 0 is the exact tail
        code, out, _ = run_cli(["solve", "--t", "0", "--n", "5",
                                "--f-width", "1e-200", *extra], capsys)
        assert code == 0
        assert [ln.split(",")[1] for ln in out.split()[1:]] == ["0", "0", "1", "0", "0"]

    def test_file_init_roundtrip(self, capsys, tmp_path):
        data = tmp_path / "init.csv"
        xs = np.linspace(-2, 2, 65)
        lines = ["x,f,g"] + [f"{x},{math.exp(-x * x)},0.0" for x in xs]
        data.write_text("\n".join(lines))
        code, out, _ = run_cli(["solve", "--init", "file", "--file", str(data),
                                "--k", "0", "--c", "1", "--t", "0.5",
                                "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        rows = np.asarray(doc["table"]["rows"])
        mid = rows[len(rows) // 2]
        assert abs(mid[0]) < 1e-12
        assert abs(mid[1] - math.exp(-0.25)) < 1e-6

    def test_file_parse_failure_is_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,f,g\n0.0,1.0\n0.5,1.0\n")  # wrong column count
        code, _, err = run_cli(["solve", "--init", "file", "--file", str(bad)],
                               capsys)
        assert code == 2
        assert "three columns" in err

    @pytest.mark.parametrize("xs", ["0,1,nan,3", "0,1,2,nan"])
    def test_non_finite_x_is_exit_2(self, capsys, tmp_path, xs):
        # a nan fails every comparison, so the spacing check alone let it through
        bad = tmp_path / "nan_x.csv"
        bad.write_text("x,f,g\n" + "".join(f"{x},1.0,0.0\n" for x in xs.split(",")))
        code, out, err = run_cli(["solve", "--init", "file", "--file", str(bad)], capsys)
        assert code == 2
        assert err.startswith("error:") and "x column" in err
        assert out == ""

    def test_missing_file_is_exit_2(self, capsys):
        code, _, _ = run_cli(["solve", "--init", "file", "--file",
                              "/nonexistent/init.csv"], capsys)
        assert code == 2


class TestDeltaCommand:
    def test_financial_atoms_and_mass(self, capsys, schema):
        code, out, _ = run_cli(["delta", "--kind", "financial", "--k", "1",
                                "--c", "1", "--t", "2", "--format", "json"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert doc["atoms"] == [{"x": 2.0, "w": 0.36787944117144233}]
        assert abs(doc["mass"]["total"] - 1.0) < 1e-6

    def test_velocity_impulse_plateau(self, capsys):
        code, out, _ = run_cli(["delta", "--kind", "delta_velocity", "--k", "0",
                                "--c", "1", "--t", "1", "--format", "json"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["atoms"] == []
        for row in doc["density"]:
            if abs(row["x"]) < 1.0 - 1e-9:
                assert abs(row["v"] - 0.5) < 1e-12
            elif abs(row["x"]) > 1.0 + 1e-9:
                assert row["v"] == 0.0

    def test_undamped_at_huge_time(self, capsys):
        # the default grid reaches |x| = 1.1e300, where x^2 overflows
        code, out, err = run_cli(["delta", "--k", "0", "--t", "1e300", "--n", "65",
                                  "--format", "json"], capsys)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["atoms"] == [{"x": -1e300, "w": 0.5}, {"x": 1e300, "w": 0.5}]
        assert all(row["v"] == 0.0 for row in doc["density"])
        assert doc["mass"]["total"] == 1.0

    def test_csv_header_block(self, capsys):
        code, out, _ = run_cli(["delta", "--kind", "delta_position", "--k", "1",
                                "--c", "1", "--t", "1", "--n", "129"], capsys)
        assert code == 0
        lines = out.splitlines()
        atom_lines = [ln for ln in lines if ln.startswith("# atom,")]
        assert len(atom_lines) == 2
        assert any(ln.startswith("# mass,total,") for ln in lines)
        assert "x,density" in lines


def _csv_document(text):
    """(atoms, mass, columns, rows) of a CSV document, numbers parsed."""
    atoms, mass, body = [], {}, []
    for line in text.splitlines():
        if line.startswith("# atom,"):
            atoms.append([float(v) for v in line.split(",")[1:]])
        elif line.startswith("# mass,"):
            _, part, value = line.split(",")
            mass[part] = float(value)
        else:
            body.append(line.split(","))
    return atoms, mass, body[0], [[float(v) for v in row] for row in body[1:]]


@pytest.mark.parametrize("argv", [
    ["kernel", "--k", "2", "--t", "1.5", "--n", "33"],
    ["solve", "--n", "65", "--g-amp", "1", "--t", "0.7"],
    *(["delta", "--kind", kind, "--k", "1.5", "--n", "65"]
      for kind in ("delta_position", "delta_velocity", "financial")),
])
def test_csv_and_json_carry_the_same_numbers(capsys, argv):
    code, text, _ = run_cli(argv, capsys)
    assert code == 0
    atoms, mass, columns, rows = _csv_document(text)
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert atoms == [[a["x"], a["w"]] for a in doc.get("atoms", [])]
    assert mass == doc.get("mass", {})
    if "table" in doc:
        assert (columns, rows) == (doc["table"]["columns"], doc["table"]["rows"])
    else:
        assert columns == ["x", "density"]
        assert rows == [[p["x"], p["v"]] for p in doc["density"]]


class TestValidateCommand:
    def test_fd_suite_passes(self, capsys, schema):
        code, out, _ = run_cli(["validate", "--suite", "fd", "--k", "1",
                                "--c", "1", "--t", "1", "--dx", "0.0078125"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert all(r["pass"] for r in doc["reports"])
        assert doc["reports"][0]["metric"] == "rel_L2"
        assert doc["reports"][0]["value"] < 1e-3

    def test_duhamel_suite_k0(self, capsys):
        code, out, _ = run_cli(["validate", "--suite", "duhamel", "--k", "0", "--t", "1"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["value"] < 1e-8

    def test_duhamel_suite_k0_is_the_closed_form(self, capsys):
        # the free-wave residual is 0 by construction, so k = 0 checks d'Alembert
        code, out, _ = run_cli(["validate", "--suite", "duhamel", "--k", "0",
                                "--c", "0.7"], capsys)
        assert code == 0
        assert [r["name"] for r in json.loads(out)["reports"]] == ["dalembert_closed_form"]

    @pytest.mark.parametrize("suite,names", [
        ("duhamel", ["duhamel_fixed_point"]),
        ("semigroup", ["composition_u", "composition_ut"]),
    ])
    def test_damped_suite_passes(self, capsys, schema, suite, names):
        code, out, _ = run_cli(["validate", "--suite", suite, "--k", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, schema)
        assert [r["name"] for r in doc["reports"]] == names
        assert all(r["pass"] for r in doc["reports"])
        assert "format" not in doc["config"]  # validate always writes JSON

    def test_failing_suite_exits_1(self, capsys):
        # starving the walk of samples leaves TV noise above tolerance
        code, out, _ = run_cli(["validate", "--suite", "walk", "--n-walkers",
                                "2000", "--seed", "9"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert not all(r["pass"] for r in doc["reports"])

    def test_bad_suite_config_exits_2(self, capsys):
        # k*dt > 2 makes the repeat probability negative: config error
        code, _, err = run_cli(["validate", "--suite", "walk", "--k", "3",
                                "--dt-walk", "1"], capsys)
        assert code == 2
        assert "repeat probability" in err


# corners of each subcommand's domain, with the exit code each must give: 0, or 2
# with one error line; a RuntimeWarning on the way is an error (pyproject)
_CORNERS = [
    ("kernel --n 5", 0),
    # the undamped kernel at c^2 t^2 = inf: psi = 0.5, no 0 * inf
    ("kernel --k 0 --t 1e300 --n 5", 0),
    # x^2 overflows on the default grid, which reaches |x| = 1.1e300
    ("delta --k 0 --t 1e300", 0),
    # the default grid's span 2.2 c t = 1.76e308 is still finite
    ("delta --k 0 --t 8e307 --n 5", 0),
    # c^2 t^2 underflows; lam is formed in units of a power of two near c
    ("kernel --k 1 --c 1e-300 --t 0.37 --n 5", 0),
    # c^2 t^2 overflows, the Bessel argument k t/2 = 500 does not
    ("kernel --k 1e-152 --t 1e155 --n 5", 0),
    ("delta --k 1e-152 --t 1e155 --n 65", 0),
    ("solve --n 257 --format json", 0),
    ("delta --kind financial", 0),
    # c t = 1e-400 underflows; the dipole factor is formed in units of a power of two near c
    ("delta --kind financial --k 1 --c 1e-300 --t 1e-100 --xmin -4 --xmax 4 --n 129", 0),
    # c t = 1e-400 and 1e-320: the default grid keeps a normal spacing
    ("delta --c 1e-300 --t 1e-100", 0),
    ("delta --t 1e-320", 0),
    ("validate --suite fd --dx 0.0078125", 0),
    ("validate --suite all", 0),
    # each suite sizes itself from k, c and t, and the Duhamel residual is on u's scale
    ("validate --suite duhamel --k 8", 0),
    ("validate --suite fd --t 7 --dx 0.0078125", 0),
    ("validate --suite semigroup --t 5", 0),
    # a nan time, and grids or walks of more than 2^53 points or steps
    ("validate --suite duhamel --t nan", 2),
    ("validate --suite duhamel --t 1e300", 2),
    ("validate --suite walk --t 1e300", 2),
    ("validate --suite walk --t 1e300 --dt-walk 1e-10", 2),
    # a half-width c|t| + 6 = 1e308 whose point count overflows; 4 k t = inf slabs
    ("validate --suite fd --c 1e300 --t 1e8", 2),
    ("validate --suite duhamel --k 1e300 --t 1e10 --c 1e-20", 2),
    ("kernel --n 10000000000000000000", 2),
    # an --n past float64's range: its grid spacing and delta's default half-width
    # would overflow converting it to a float
    *((f"{command} --n 1{'0' * 400}", 2) for command in ("kernel", "solve", "delta")),
    # the growth-compensated kernel leaves float64 at k|t| = 1820 and 3000
    ("kernel --t -1.3 --k 1400", 2),
    ("delta --k 3000 --t 1", 2),
    # a cone window too wide for float64 to index its Simpson nodes
    ("solve --t 1e306 --n 257", 2),
    # e^{-kt/2} = e^600 times the field overflows
    ("solve --t -30 --k 40 --n 257", 2),
    # the kernel table's atoms at -+ct, ct = 1e310
    ("kernel --c 1e300 --t 1e10 --n 5", 2),
    # k t / 2 = 700: I0 stays in float64 and e^{-kt/2} = 1e-304 is still a normal number
    ("delta --kind delta_velocity --k 1400 --t 1 --n 65", 0),
    # slab times t/32 = 3.1e-15 apart: each slab keeps its own solve and window
    ("validate --suite duhamel --t 1e-13 --k 4e13 --dx 1e-16", 0),
]


@pytest.mark.parametrize("command,expected", _CORNERS, ids=[c for c, _ in _CORNERS])
def test_corner_exits_0_or_2_with_one_error_line(capsys, command, expected):
    code, _, err = run_cli(command.split(), capsys)
    assert code == expected
    assert sum(ln.startswith("error:") for ln in err.splitlines()) == (1 if code == 2 else 0)


class TestOutOfDomainInput:
    # exit 1 means "validation failure", so bad input must exit 2 with no traceback
    @pytest.mark.parametrize("argv", [
        ["kernel", "--n", "1"],
        ["solve", "--n", "1"],
        ["validate", "--suite", "fd", "--dx", "0"],
        ["validate", "--suite", "fd", "--dx", "nan"],
        ["validate", "--suite", "walk", "--t", "nan"],
        ["validate", "--suite", "walk", "--t", "inf"],
        ["validate", "--suite", "walk", "--seed", "-1"],
        ["validate", "--suite", "duhamel", "--t", "inf"],
        # at t < 0, e^{-kt/2} itself, or e^{-kt/2} times the field, overflows float64
        ["solve", "--t", "-20", "--k", "100", "--n", "257"],
        ["solve", "--t", "-10", "--k", "140", "--n", "257"],
        # at t > 0 the growth-compensated kernel leaves float64 once k t / 2 passes ~714
        ["delta", "--k", "3000", "--t", "1"],
        ["delta", "--kind", "financial", "--k", "1500", "--t", "1"],
        ["solve", "--k", "3000", "--t", "1", "--n", "1025"],
        # a cone window too wide for float64 to index its Simpson nodes
        ["solve", "--t", "1e306", "--n", "257"],
        # the kernel table's atoms at -+ct, ct = 1e600
        ["kernel", "--k", "0", "--c", "1e300", "--t", "1e300", "--n", "5"],
        ["kernel", "--k", "0", "--c", "1e300", "--t=-1e300", "--n", "5"],
        ["solve", "--t", "1.7e308", "--n", "257"],
    ])
    def test_usage_error_exits_2(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["kernel", "--n", "1000000000"],
        ["solve", "--n", "1000000000"],
        ["validate", "--suite", "walk", "--dt-walk", "1e-9", "--n-walkers", "10"],
    ])
    def test_failed_allocation_exits_2(self, argv):
        # each asks for an 8 GB array; the 1 GiB address-space limit holds in the
        # child process alone, so the allocation fails there and nowhere else
        resource = pytest.importorskip("resource")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONWARNINGS": "error::RuntimeWarning",
               "PYTHONPATH": str(Path(telegraph.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "telegraph.cli", *argv], env=env,
                              preexec_fn=limit, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("argv,message", [
        (["delta", "--t", "-1"], "t > 0"),
        (["delta", "--t", "0"], "t > 0"),
        (["solve", "--f-width", "0"], "--f-width"),
        (["solve", "--g-width", "0", "--g-amp", "1"], "--g-width"),
        # a time that is not finite is named before any cone or grid is built from it
        (["kernel", "--t", "nan"], "error: time must be finite, got nan"),
        (["delta", "--t", "inf"], "error: time must be finite, got inf"),
        (["solve", "--t", "nan"], "error: time must be finite, got nan"),
        (["delta", "--kind", "financial", "--c", "1e300", "--t", "1e10"],
         "error: cone radius c|t| = 1e+300 * 10000000000.0 exceeds float64"),
        # a finite c t whose default grid, 2.2 c t wide, is past float64
        *((["delta", "--k", "0", "--t", t, "--n", "5"], "error: cone radius")
          for t in ("9e307", "1e308", "1.5e308", "1.7e308")),
    ])
    def test_error_names_the_bad_input(self, capsys, argv, message):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error:") and message in err
        assert out == ""


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# kernel run\nt = 2\nk = 4\nxmin = 0\nxmax = 1\nn = 2\n")
        code, out, _ = run_cli(["kernel", "--config", str(cfg), "--t", "1",
                                "--c", "1", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["t"] == 1.0   # flag wins
        assert doc["config"]["k"] == 4.0   # file beats default
        assert abs(doc["table"]["rows"][0][1] - 1.1397926511680336) < 1e-12

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("this line has no equals sign\n")
        code, _, _ = run_cli(["kernel", "--config", str(cfg)], capsys)
        assert code == 2

    @pytest.mark.parametrize("command,entry", [
        ("validate", "suite = bogus"),
        ("kernel", "format = xml"),
        ("solve", "init = bogus"),
        ("kernel", "xmni = 0"),
        # fixed settings, not options
        ("delta", "mass_panels = 8"),
        ("validate", "courant = 0.5"),
        ("validate", "tol = 1e-3"),
        ("validate", "slabs = 8"),
    ])
    def test_bad_config_entry_exits_2(self, capsys, tmp_path, command, entry):
        # file values get the flags' choice checks, and unknown keys are errors
        cfg = tmp_path / "run.cfg"
        cfg.write_text(entry + "\n")
        code, out, err = run_cli([command, "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("error:") and entry.split(" =")[0] in err
        assert out == ""

    def test_unparseable_value_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = tomorrow\n")
        code, _, err = run_cli(["kernel", "--config", str(cfg)], capsys)
        assert code == 2
        assert "not a valid float" in err

    def test_output_file_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["kernel", "--k", "2", "--c", "1", "--t", "1.5",
                "--xmin", "-3", "--xmax", "3", "--n", "33"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_argparse_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["delta", "--kind", "not-a-kind"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["delta", "--mass-panels", "8"],
        ["validate", "--suite", "fd", "--courant", "0.5"],
        ["validate", "--suite", "fd", "--format", "csv"],
        # each suite sizes itself from k, c and t and has one fixed tolerance
        ["validate", "--tol", "1e-3"],
        ["validate", "--slabs", "8"],
    ])
    def test_fixed_setting_is_no_flag(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_cold_import_leaves_numpy_polynomial_out():
    # importing numpy.polynomial would cost every cold CLI process about 4 ms; the
    # Gauss-Legendre rule of the point-law mass loads it on first use instead
    env = {**os.environ, "PYTHONPATH": str(Path(telegraph.__file__).resolve().parents[1])}
    code = "import sys, telegraph, telegraph.cli; print('numpy.polynomial' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
