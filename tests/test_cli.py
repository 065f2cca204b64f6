import json
import math

import pytest

from squeezekit.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestClassify:
    def test_one_mode_quantum(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "one-mode", "--n", "0.12", "--m", "0.29")
        assert code == 0
        assert "classification  quantum" in out

    def test_one_mode_thermal(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "one-mode", "--n", "1", "--m", "0")
        assert code == 0
        assert "classification  classical" in out
        assert "g2              2" in out

    def test_nonphysical_exits_three(self, capsys):
        code, out, err = run_cli(capsys, "classify", "one-mode", "--n", "0.5", "--m", "1.0")
        assert code == 3
        assert "physical        false" in out

    def test_epr_entangled_with_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "epr", "--n", "1", "--mc", "1.2",
                               "--oracle", "--cutoff", "25")
        assert code == 0
        assert "entangled           true" in out
        fields = dict(line.split(None, 1) for line in out.strip().split("\n"))
        assert float(fields["oracle_ppt_min_eig"]) < 0

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "epr", "--n", "1", "--mc", "0.5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["entangled"] is False
        assert payload["v_minus"] == pytest.approx(1.25 / 3.25)

    def test_general_family(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "general", "--n", "1",
                               "--m", "0.70710678", "--mc", "0.70710678",
                               "--lam1", "0", "--lam2", "0.5")
        assert code == 0
        assert "separable" in out

    def test_readme_general_example(self, capsys):
        # Hot enough (n = 5) that the trace of any cutoff-40 Fock candidate
        # has not converged; physicality needs no truncation.
        code, out, _ = run_cli(capsys, "classify", "general", "--n", "5", "--m", "1",
                               "--mc", "1", "--lam1", "0", "--lam2", "0.5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["physical"] is True
        assert payload["v_minus"] == pytest.approx(26.0 / 77.0, rel=1e-12)

    def test_werner(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "werner", "--n", "1", "--mc", "1.2",
                               "--p", "0.8")
        assert code == 0
        assert "hbt_threshold" in out

    @pytest.mark.parametrize("n", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("family, magnitude, extra", [
        ("epr", "--mc", ()),
        ("werner", "--mc", ("--p", "0.5")),
        ("bs-output", "--m", ("--lam", "0.3")),
    ])
    def test_physicality_boundary(self, capsys, family, magnitude, extra, n):
        # A magnitude of exactly sqrt(n(n+1)) is a pure boundary state; one
        # part in a million more is not a state.
        bound = math.sqrt(n * (n + 1.0))
        for value, physical in ((bound, True), ((1.0 + 1e-6) * bound, False)):
            code, out, _ = run_cli(capsys, "classify", family, "--n", repr(n),
                                   magnitude, repr(value), *extra, "--format", "json")
            assert json.loads(out)["physical"] is physical
            assert code == (0 if physical else 3)

    @pytest.mark.parametrize("argv", [
        ("epr", "--n", "3", "--mc", "2", "--oracle"),
        ("one-mode", "--n", "1", "--m", "0.5", "--oracle", "--cutoff", "10"),
    ])
    def test_unconverged_oracle_exits_two_with_remedy(self, capsys, argv):
        code, out, err = run_cli(capsys, "classify", *argv)
        assert code == 2
        assert out == ""
        assert "trace deficit" in err and "at cutoff" in err
        assert "rerun with a larger --cutoff" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


class TestAmplifier:
    def test_reported_gains(self, capsys):
        code, out, _ = run_cli(capsys, "amplifier", "--G", "1.65", "--H", "1.05",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["n"]) == pytest.approx(0.120, abs=5e-3)
        assert float(payload["m"]) == pytest.approx(0.287, abs=5e-3)
        assert float(payload["g2"]) == pytest.approx(7.68, abs=0.05)
        assert float(payload["purity"]) == pytest.approx(0.909, abs=3e-3)
        assert float(payload["w2"]) == pytest.approx(-4.68, abs=0.05)
        assert payload["classical_threshold"] is False

    def test_invalid_gain_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "amplifier", "--G", "0.5", "--H", "1.0")
        assert code == 2
        assert "error" in err


class TestWitnessAndVisibility:
    def test_w2(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "w2", "--n", "1", "--m", "0",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["value"]) == pytest.approx(1.0)
        assert payload["verdict"] == "classical-or-separable"

    def test_whbt_epr_boundary(self, capsys):
        code, out, _ = run_cli(capsys, "witness", "whbt", "--family", "epr",
                               "--n", "1", "--mc", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert abs(float(payload["value"])) < 1e-12
        assert payload["verdict"] == "boundary"

    def test_visibility_uncorrelated(self, capsys):
        code, out, _ = run_cli(capsys, "visibility", "uncorrelated", "--n", "1", "--m", "1",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["v_minus"]) == pytest.approx(0.25)
        assert float(payload["v_plus"]) == pytest.approx(0.25)

    def test_visibility_angle_units(self, capsys):
        # --lam 0.5 means pi/2.
        code, out, _ = run_cli(capsys, "visibility", "bs-output", "--n", "1",
                               "--m", "1.41421356", "--lam", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert float(payload["v_minus"]) == pytest.approx(0.6, abs=1e-6)
        assert float(payload["v_plus"]) == pytest.approx(0.0, abs=1e-9)

    def test_visibility_radians(self, capsys):
        code, out, _ = run_cli(capsys, "visibility", "bs-output", "--n", "1",
                               "--m", "1.41421356", "--lam", str(math.pi / 2),
                               "--radians", "--format", "json")
        assert code == 0
        assert float(json.loads(out)["v_minus"]) == pytest.approx(0.6, abs=1e-6)

    def test_nonphysical_visibility_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "visibility", "epr", "--n", "1", "--mc", "1.5")
        assert code == 3


class TestFigures:
    def test_figure_5_landmarks(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "5", "--points", "11")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["mc", "v_minus"]
        values = {row[0]: float(row[1]) for row in rows}
        assert values["1"] == pytest.approx(0.5, abs=1e-12)
        sqrt2_key = f"{math.sqrt(2):.12g}"
        assert values[sqrt2_key] == pytest.approx(0.6, abs=1e-12)

    def test_figure_6_landmarks(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "6", "--points", "11")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["n", "p_hbt", "p_ppt"]
        at_one = [row for row in rows if row[0] == "1"][0]
        assert float(at_one[1]) == pytest.approx(0.5, abs=1e-12)
        assert float(at_one[2]) == pytest.approx(0.320, abs=1e-3)

    def test_figure_11_boundary_row(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "11", "--points", "9")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["mc", "v_minus", "v_plus", "v_m", "separable"]
        boundary_key = f"{1 / math.sqrt(2):.12g}"
        at_boundary = [row for row in rows if row[0] == boundary_key][0]
        assert float(at_boundary[1]) == pytest.approx(3.0 / 8.0, abs=1e-12)
        assert float(at_boundary[2]) == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert float(at_boundary[3]) == pytest.approx(1.0 / 8.0, abs=1e-12)
        assert at_boundary[4] == "true"
        # Entanglement beyond the boundary.
        beyond = [row for row in rows if float(row[0]) > 1 / math.sqrt(2) + 1e-9]
        assert all(row[4] == "false" for row in beyond if float(row[0]) < math.sqrt(2) - 1e-9)

    def test_figure_csv_is_deterministic(self, capsys, tmp_path):
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        assert main(["figure", "3", "--points", "25", "--out", str(path_a)]) == 0
        assert main(["figure", "3", "--points", "25", "--out", str(path_b)]) == 0
        capsys.readouterr()
        assert path_a.read_bytes() == path_b.read_bytes()
        assert b"\r" not in path_a.read_bytes()

    def test_figure_has_comment_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "3", "--points", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# ")
        assert lines[1] == "m,v_minus,v_plus"

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "7"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestSweep:
    def test_epr_sweep(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "epr", "--n", "1",
                               "--vary", "mc", "0", "1.4", "8")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "n"
        assert len(rows) == 8

    def test_sweep_handles_nonphysical_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "epr", "--n", "1",
                               "--vary", "mc", "1.3", "1.6", "4")
        assert code == 0
        header, rows = parse_csv(out)
        physical_col = header.index("physical")
        assert rows[0][physical_col] == "true"
        assert rows[-1][physical_col] == "false"

    def test_unknown_parameter_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "epr", "--n", "1",
                               "--vary", "zzz", "0", "1", "4")
        assert code == 2

    def test_unconverged_oracle_point_exits_two_with_remedy(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "epr", "--n", "1", "--vary", "mc", "0", "1", "3",
                               "--oracle", "--cutoff", "10")
        assert code == 2
        assert "at cutoff 10" in err and "rerun with a larger --cutoff" in err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1


class TestOracleCheckCommand:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--states", "4",
                               "--ppt-cutoff", "25", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert {c["name"] for c in payload["checks"]} == {
            "one-mode moments", "one-mode purity", "single-mode witness",
            "two-mode moments", "intensity witness", "partial-transpose boundary",
        }
