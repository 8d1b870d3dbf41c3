"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import profile_lab
from profile_lab import excursion, simulate
from profile_lab.analysis import ConvergenceError, rho_ls_star, s_star
from profile_lab.bidding import DEFAULT_X_MIN
from profile_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTradeoff:
    def test_bidding_endpoint_row(self, capsys):
        code, out, _ = run(capsys, "tradeoff", "--problem", "bidding",
                           "--s", "1.0")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "s,rho,chi"
        _, rho, chi = (float(v) for v in row.split(","))
        assert rho == pytest.approx(math.e, rel=1e-12)
        assert chi == pytest.approx(math.e, rel=1e-12)

    def test_linsearch_endpoint_row(self, capsys):
        code, out, _ = run(capsys, "tradeoff", "--problem", "linsearch",
                           "--s", repr(s_star()))
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(4.59112, abs=1e-4)
        assert float(row[4]) == pytest.approx(4.59112, abs=1e-4)

    def test_default_curve_shape(self, capsys):
        code, out, _ = run(capsys, "tradeoff", "--problem", "bidding",
                           "--steps", "100", "--log")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 101
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(0.035, rel=1e-9)

    def test_bad_range_exit_2(self, capsys):
        code, _, err = run(capsys, "tradeoff", "--problem", "bidding",
                           "--s-min", "0.5", "--s-max", "0.1")
        assert code == 2
        assert "error" in err

    def test_domain_error_writes_no_file(self, capsys, tmp_path):
        out_file = tmp_path / "f.csv"
        code, _, err = run(capsys, "tradeoff", "--problem", "bidding",
                           "--s", "5", "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: ")
        assert not out_file.exists()


class TestLowerbound:
    def test_t_one_row(self, capsys):
        code, out, _ = run(capsys, "lowerbound", "--t", "1.0")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[1]) == pytest.approx(4.0)
        assert float(row[2]) == pytest.approx(3.0)
        assert float(row[3]) == pytest.approx(4.59112, abs=1e-4)

    def test_t_02_row(self, capsys):
        code, out, _ = run(capsys, "lowerbound", "--t", "0.2")
        assert code == 0
        row = [float(v) for v in out.strip().splitlines()[1].split(",")]
        assert row[1] == pytest.approx(1.42161, abs=1e-4)
        assert row[2] == pytest.approx(6.4007, abs=1e-4)
        assert row[3] == pytest.approx(6.4007, abs=1e-4)

    def test_monotone_chi(self, capsys):
        code, out, _ = run(capsys, "lowerbound", "--steps", "50")
        assert code == 0
        chis = [float(line.split(",")[1])
                for line in out.strip().splitlines()[1:]]
        assert all(b > a for a, b in zip(chis, chis[1:]))

    def test_rejects_t_beyond_one(self, capsys):
        code, _, err = run(capsys, "lowerbound", "--t-min", "0.5",
                           "--t-max", "1.05")
        assert code == 2


class TestProfileCommands:
    def test_build_verify_roundtrip(self, capsys, tmp_path):
        out_file = str(tmp_path / "b.json")
        code, _, _ = run(capsys, "profile", "build", "--problem", "bidding",
                         "--s", "0.5", "--out", out_file)
        assert code == 0
        code, out, _ = run(capsys, "profile", "verify", out_file)
        assert code == 0
        assert "passed=True" in out

    def test_tampered_profile_fails_verify(self, capsys, tmp_path):
        out_file = str(tmp_path / "b.json")
        run(capsys, "profile", "build", "--problem", "bidding",
            "--s", "0.5", "--out", out_file)
        doc = json.loads(open(out_file).read())
        # deflating the left part breaks tight robustness near 0
        doc["left_values"] = [v * 0.9 for v in doc["left_values"]]
        doc["left_tail"]["coeff"] *= 0.9
        with open(out_file, "w") as fh:
            json.dump(doc, fh)
        code, out, _ = run(capsys, "profile", "verify", out_file)
        assert code == 1
        assert "robustness" in out

    def test_single_bumped_value_fails_verify(self, capsys, tmp_path):
        out_file = str(tmp_path / "b.json")
        run(capsys, "profile", "build", "--problem", "bidding",
            "--s", "0.5", "--out", out_file)
        doc = json.loads(open(out_file).read())
        doc["left_values"][len(doc["left_values"]) - 2001] *= 1.1
        with open(out_file, "w") as fh:
            json.dump(doc, fh)
        code, out, _ = run(capsys, "profile", "verify", out_file)
        assert code == 1

    def test_linsearch_build_verify(self, capsys, tmp_path):
        # at h = 0.002 G-'s value at 0 overshoots K e^{-s} by ~2e-11
        # (quadrature error), which verify must accept
        for s, grid in (("0.4", []), ("0.6", ["--h", "0.002"])):
            out_file = str(tmp_path / f"l{s}.json")
            code, _, _ = run(capsys, "profile", "build", "--problem",
                             "linsearch", "--s", s, "--out", out_file, *grid)
            assert code == 0
            code, out, _ = run(capsys, "profile", "verify", out_file)
            assert code == 0, out

    def test_tiny_s_linsearch_verify_names_failure(self, capsys, tmp_path):
        out_file = str(tmp_path / "l.json")
        code, _, _ = run(capsys, "profile", "build", "--problem", "linsearch",
                         "--s", "1e-20", "--out", out_file)
        assert code == 0
        code, out, err = run(capsys, "profile", "verify", out_file)
        assert code == 1
        assert "failure: positivity: G-" in out
        assert err == ""

    def test_simulate_deterministic(self, capsys, tmp_path):
        out_file = str(tmp_path / "b.json")
        run(capsys, "profile", "build", "--problem", "bidding",
            "--s", "1.0", "--out", out_file)
        code, out1, _ = run(capsys, "profile", "simulate", out_file,
                            "--target", "2.0", "--samples", "20000",
                            "--seed", "42")
        assert code == 0
        _, out2, _ = run(capsys, "profile", "simulate", out_file,
                         "--target", "2.0", "--samples", "20000",
                         "--seed", "42")
        assert out1 == out2
        assert out1.startswith("mean=")

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "profile", "verify",
                           str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_file_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"problem": "mystery"}')
        code, _, err = run(capsys, "profile", "verify", str(bad))
        assert code == 2

    def test_solver_failure_exit_3(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("did not reach tol")

        monkeypatch.setattr(excursion, "build_excursion_profile", fail)
        code, _, err = run(capsys, "profile", "build", "--problem", "linsearch",
                           "--s", "1.25", "--out", str(tmp_path / "l.json"))
        assert code == 3
        assert err.startswith("error: ")

    def test_simulate_failure_exit_4(self, capsys, tmp_path, monkeypatch):
        out_file = str(tmp_path / "b.json")
        run(capsys, "profile", "build", "--problem", "bidding",
            "--s", "0.5", "--out", out_file)

        def fail(*args, **kwargs):
            raise RuntimeError("bidding simulation failed to terminate")

        monkeypatch.setattr(simulate, "simulate_bidding", fail)
        code, _, err = run(capsys, "profile", "simulate", out_file,
                           "--target", "2.0", "--samples", "100")
        assert code == 4
        assert err.startswith("error: ")

    def test_grid_over_the_node_cap_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "b.json"
        code, _, err = run(capsys, "profile", "build", "--problem", "bidding",
                           "--s", "0.5", "--x-min=-1e12",
                           "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: ") and "exceeds the cap" in err
        assert not out_file.exists()

    def test_samples_beyond_memory_exit_2(self, capsys, tmp_path):
        # 10^12 samples need terabytes; the child runs under a 2 GB address
        # space limit, so the allocation fails the same way on any host
        out_file = str(tmp_path / "b.json")
        run(capsys, "profile", "build", "--problem", "bidding",
            "--s", "1.0", "--out", out_file)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep
                   .join([str(Path(profile_lab.__file__).parents[1]),
                          os.environ.get("PYTHONPATH", "")]))
        limit = 2 * 1024 ** 3
        child = subprocess.run(
            [sys.executable, "-m", "profile_lab.cli", "profile", "simulate",
             out_file, "--target", "2", "--samples", "1000000000000"],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)))
        assert child.returncode == 2, child.stderr
        assert child.stderr.startswith("error: out of memory")
        assert "Traceback" not in child.stderr

    def test_unreached_target_exit_2(self, capsys, tmp_path):
        out_file = str(tmp_path / "b.json")
        run(capsys, "profile", "build", "--problem", "bidding",
            "--s", "0.5", "--out", out_file)
        doc = json.loads(open(out_file).read())
        # a right part that stays at 1 never reaches the target 2
        doc["right_pieces"] = [{"lo": 0.0, "hi": None, "level": 1.0,
                                "terms": []}]
        with open(out_file, "w") as fh:
            json.dump(doc, fh)
        code, _, err = run(capsys, "profile", "simulate", out_file,
                           "--target", "2", "--samples", "100")
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("problem, tamper", [
        pytest.param("bidding", lambda d: d.update(s=0.6), id="s"),
        pytest.param("bidding", lambda d: d.update(rho=d["rho"] * 1.01),
                     id="rho"),
        pytest.param("bidding", lambda d: d.update(chi=d["chi"] + 1e-3),
                     id="chi"),
        pytest.param("bidding", lambda d: d["left_tail"].update(
            coeff=d["left_tail"]["coeff"] * 1e6), id="tail-coeff"),
        pytest.param("bidding", lambda d: d["left_tail"].update(
            rate=d["left_tail"]["rate"] * 0.5), id="tail-rate"),
        pytest.param("bidding", lambda d: d.update(kink_nodes=[]),
                     id="kink-nodes"),
        pytest.param("bidding", lambda d: d["right_pieces"][-1].update(
            level=0.5), id="right-piece"),
        pytest.param("linsearch", lambda d: d.update(M=2.0), id="M"),
        pytest.param("linsearch", lambda d: d.update(K=d["K"] * 1.01),
                     id="K"),
        pytest.param("linsearch", lambda d: d["g_minus"]["left_tail"].update(
            coeff=d["g_minus"]["left_tail"]["coeff"] * 1e6),
            id="minus-tail-coeff"),
        pytest.param("bidding", lambda d: d.update(h="0.001"),
                     id="h-string"),
        pytest.param("bidding", lambda d: d.update(s=math.nan), id="s-nan"),
        pytest.param("bidding",
                     lambda d: d["left_values"].__setitem__(0, math.nan),
                     id="left-value-nan"),
        pytest.param("bidding", lambda d: [d], id="top-level-list"),
    ])
    def test_tampered_or_malformed_file_exit_2(self, capsys, tmp_path,
                                                problem, tamper):
        out_file = str(tmp_path / "p.json")
        s = "0.5" if problem == "bidding" else "0.9"
        run(capsys, "profile", "build", "--problem", problem, "--s", s,
            "--out", out_file, "--x-min", "-12", "--h", repr(1 / 128))
        doc = json.loads(open(out_file).read())
        doc = tamper(doc) or doc
        with open(out_file, "w") as fh:
            json.dump(doc, fh)
        for cmd in (["verify"], ["simulate", "--target", "2",
                                 "--samples", "100"]):
            code, out, err = run(capsys, "profile", cmd[0], out_file,
                                 *cmd[1:])
            assert code == 2, (cmd, out)
            assert err.startswith("error: ")

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("problem, s", [("bidding", "0.5"),
                                            ("linsearch", "0.9")])
    def test_non_finite_target_exit_2(self, capsys, tmp_path, problem, s,
                                      target):
        out_file = str(tmp_path / "p.json")
        run(capsys, "profile", "build", "--problem", problem, "--s", s,
            "--out", out_file, "--x-min", "-12", "--h", repr(1 / 128))
        code, out, err = run(capsys, "profile", "simulate", out_file,
                             f"--target={target}", "--samples", "100")
        assert code == 2
        assert err.startswith("error: target must be")

    def test_verify_tolerance_flags_are_gone(self, capsys, tmp_path):
        out_file = str(tmp_path / "b.json")
        run(capsys, "profile", "build", "--problem", "bidding", "--s", "0.5",
            "--out", out_file, "--x-min", "-12", "--h", repr(1 / 128))
        doc = json.loads(open(out_file).read())
        doc["left_values"] = [v * 1.5 for v in doc["left_values"]]
        doc["left_tail"]["coeff"] *= 1.5
        with open(out_file, "w") as fh:
            json.dump(doc, fh)
        code, out, _ = run(capsys, "profile", "verify", out_file)
        assert code == 1
        assert "failure: consistency" in out
        with pytest.raises(SystemExit) as exc:
            main(["profile", "verify", out_file,
                  "--tol-rel", "nan", "--tol-abs", "nan"])
        assert exc.value.code == 2

    def test_build_tolerance_flag_is_gone(self, capsys, tmp_path):
        out_file = tmp_path / "b.json"
        with pytest.raises(SystemExit) as exc:
            main(["profile", "build", "--problem", "bidding", "--s", "0.5",
                  "--out", str(out_file), "--tol", "1"])
        assert exc.value.code == 2
        assert not out_file.exists()

    def test_grid_flags(self, capsys, tmp_path):
        out_file = str(tmp_path / "b.json")
        code, out, _ = run(capsys, "profile", "build", "--problem", "bidding",
                           "--s", "0.5", "--out", out_file,
                           "--x-min", "-25", "--h", "0.002")
        assert code == 0
        doc = json.loads(open(out_file).read())
        assert doc["x_min"] == -25.0
        assert doc["h"] == pytest.approx(0.002)

    # chi = expm1(s)/s keeps its digits down to s = 1e-300; (e^s - 1)/s
    # failed the consistency check at 1e-13 and below
    @pytest.mark.parametrize("s", ["0.01", "0.05", "1e-300", "1e-200",
                                   "1e-20", "1e-13", "1e-9", "1e-6", "1e-3"])
    def test_small_s_uses_library_window(self, capsys, tmp_path, s):
        out_file = str(tmp_path / "b.json")
        code, out, _ = run(capsys, "profile", "build", "--problem", "bidding",
                           "--s", s, "--out", out_file)
        assert code == 0
        assert json.loads(open(out_file).read())["x_min"] == DEFAULT_X_MIN
        code, out, _ = run(capsys, "profile", "verify", out_file)
        assert code == 0, out


class TestFigure:
    def test_figure_1a(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "1a", "--steps", "40",
                         "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "ours_upper.csv").read_text().strip().splitlines()
        last = rows[-1].split(",")
        assert float(last[1]) == pytest.approx(math.e, rel=1e-9)
        assert float(last[2]) == pytest.approx(math.e, rel=1e-9)
        point = (tmp_path / "competitive_point.csv").read_text()
        assert repr(math.e) in point

    def test_figure_1b(self, capsys, tmp_path):
        code, _, _ = run(capsys, "figure", "1b", "--steps", "40",
                         "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "ours_upper.csv").read_text().strip().splitlines()
        last = rows[-1].split(",")
        assert float(last[1]) == pytest.approx(4.591121476668622, rel=1e-9)
        assert float(last[2]) == pytest.approx(4.591121476668622, rel=1e-9)
        lower = (tmp_path / "lower_bound.csv").read_text().strip().splitlines()
        assert lower[0] == "t,chi_ls,rho_ls,rho_ls_raw"
        star = rho_ls_star()
        t_last = [float(v) for v in lower[-1].split(",")]
        assert t_last[1] == pytest.approx(4.0)
        assert t_last[2] == pytest.approx(star, rel=1e-12)

    def test_figure_1a_is_bidding_tradeoff(self, capsys, tmp_path):
        run(capsys, "figure", "1a", "--steps", "40",
            "--out-dir", str(tmp_path))
        code, out, _ = run(capsys, "tradeoff", "--problem", "bidding",
                           "--log", "--steps", "40")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        expect = "".join(f"{s},{chi},{rho}\r\n" for s, rho, chi in rows)
        with open(tmp_path / "ours_upper.csv", newline="") as fh:
            assert fh.read() == expect

    def test_figure_1b_is_linsearch_tradeoff(self, capsys, tmp_path):
        run(capsys, "figure", "1b", "--steps", "40",
            "--out-dir", str(tmp_path))
        code, out, _ = run(capsys, "tradeoff", "--problem", "linsearch",
                           "--s-min", "0.0415", "--s-max", repr(s_star()),
                           "--log", "--steps", "40")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["s", "rho_excursion", "chi_excursion", "rho_ls",
                           "chi_ls", "K"]
        expect = "s,chi,rho\r\n" + "".join(
            f"{r[0]},{r[4]},{r[3]}\r\n" for r in rows[1:])
        with open(tmp_path / "ours_upper.csv", newline="") as fh:
            assert fh.read() == expect

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_too_few_steps_exit_2(self, capsys, tmp_path, steps):
        out_dir = tmp_path / "fig"
        code, _, err = run(capsys, "figure", "1a", "--steps", steps,
                           "--out-dir", str(out_dir))
        assert code == 2
        assert err.startswith("error: ")
        assert not out_dir.exists()

    def test_lower_series_matches_lowerbound_cmd(self, capsys, tmp_path):
        run(capsys, "figure", "1b", "--steps", "40",
            "--out-dir", str(tmp_path))
        lower = (tmp_path / "lower_bound.csv").read_text().strip().splitlines()
        t0 = [float(v) for v in lower[1].split(",")]
        code, out, _ = run(capsys, "lowerbound", "--t", repr(t0[0]))
        row = [float(v) for v in out.strip().splitlines()[1].split(",")]
        assert row[1] == pytest.approx(t0[1], rel=1e-15)
        assert row[3] == pytest.approx(t0[2], rel=1e-15)
