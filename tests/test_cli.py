import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

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

    def test_non_finite_json_payload_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("telegraph.cli.cmd_kernel",
                            lambda cfg: ({"value": math.inf}, [], True))
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

    def test_csv_header_block(self, capsys):
        code, out, _ = run_cli(["delta", "--kind", "delta_position", "--k", "1",
                                "--c", "1", "--t", "1", "--n", "129"], capsys)
        assert code == 0
        lines = out.splitlines()
        atom_lines = [ln for ln in lines if ln.startswith("# atom,")]
        assert len(atom_lines) == 2
        assert any(ln.startswith("# mass,total,") for ln in lines)
        assert "x,density" in lines


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
        code, out, _ = run_cli(["validate", "--suite", "duhamel", "--k", "0",
                                "--t", "1", "--slabs", "8", "--tol", "1e-8"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["reports"][0]["value"] < 1e-8

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

