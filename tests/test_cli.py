"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import profile_lab
from profile_lab import excursion, simulate
from profile_lab.analysis import ConvergenceError, rho_ls_star, s_star
from profile_lab.bidding import DEFAULT_X_MIN, BiddingProfile, _profile
from profile_lab.cli import main
from profile_lab.grids import make_grid
from profile_lab.serialize import load_profile, profile_to_dict


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scaled_bidding_file(path, factor):
    """Scale the left values of the bidding profile saved at ``path`` by
    ``factor`` and write the tail the loader derives from them: the tail
    rate is G(x_min) over the closure's mass, so scaling both can move its
    last bits."""
    doc = json.loads(open(path).read())
    left = [v * factor for v in doc["left_values"]]
    p = _profile(BiddingProfile, doc["s"], make_grid(doc["x_min"], doc["h"]),
                 (left,))
    with open(path, "w") as fh:
        json.dump(profile_to_dict(p), fh)


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

    @pytest.mark.parametrize("argv", [
        ("tradeoff", "--problem", "bidding", "--s", "1e-320"),
        ("tradeoff", "--problem", "linsearch", "--s", "1e-320"),
        ("tradeoff", "--problem", "linsearch", "--s", "5.6e-309"),
        ("lowerbound", "--t", "1e-320"),
        ("lowerbound", "--t-min", "1e-320", "--steps", "3", "--log"),
    ], ids=["bidding", "linsearch", "linsearch-strategy", "lowerbound",
            "lowerbound-range"])
    def test_overflowing_rho_exit_2(self, capsys, argv):
        # rho would be inf: below about 5.6e-309, and for the linear-search
        # strategy's 1 + 2 rho below about 1.1e-308
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "rho overflows" in err


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


# curve parameters: anything a float flag parses, weighted to the domains'
# ends, to subnormals and to values just past them
_curve_values = st.one_of(
    st.none(), st.floats(), st.floats(0.0, 1.3), st.floats(0.0, 1e-300),
    st.sampled_from([0.0, 5e-324, 5.5e-309, 5.6e-309, 1.1e-308, 0.005, 0.035,
                     0.0415, 1.0, 1.0 + 1e-12, s_star(), math.nan, math.inf,
                     -math.inf]))


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from([("tradeoff", "--problem=bidding"),
                                ("tradeoff", "--problem=linsearch"),
                                ("lowerbound",)]),
       value=_curve_values, v_min=_curve_values, v_max=_curve_values,
       steps=st.integers(-3, 20), log=st.booleans())
def test_curve_commands_exit_2_or_write_finite_rows(command, value, v_min,
                                                    v_max, steps, log):
    name = "t" if command[0] == "lowerbound" else "s"
    argv = [*command, f"--steps={steps}", *(["--log"] if log else [])]
    for flag, v in ((name, value), (f"{name}-min", v_min),
                    (f"{name}-max", v_max)):
        if v is not None:
            argv.append(f"--{flag}={v!r}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return
    assert code == 0, (argv, err.getvalue())
    header, *rows = out.getvalue().splitlines()
    names = header.split(",")
    assert rows
    for row in rows:
        cells = [float(c) for c in row.split(",")]
        assert len(cells) == len(names)
        assert all(math.isfinite(c) and c > 0.0 for c in cells), (argv, row)
        if "chi_ls" in names:
            assert cells[names.index("chi_ls")] >= 1.0, (argv, row)


# s in and around each problem's domain, (0, 1] and [S_MIN, s_*]: its ends
# and their neighbours, 0, negatives, non-finite values, values above it,
# and values below S_MIN, down to where rho overflows
_OUTSIDE_S = [0.0, -0.0, -0.5, -math.inf, math.nan, math.inf, 1e-20, 1e-300,
              1e-320, 5e-324, 2.0]
_profile_s = {
    "bidding": st.floats(0.05, 1.0) | st.floats(0.0, 1.2) | st.sampled_from(
        [*_OUTSIDE_S, 1.0, math.nextafter(1.0, 2.0)]),
    "linsearch": st.floats(0.05, s_star()) | st.floats(0.0, 1.4)
    | st.floats(1e-12, 1e-9) | st.sampled_from(
        [*_OUTSIDE_S, excursion.S_MIN, math.nextafter(excursion.S_MIN, 0.0),
         s_star(), math.nextafter(s_star(), 2.0)]),
}
# the exit codes the CLI's docstring gives each profile command
_PROFILE_EXITS = {"build": {0, 2, 3}, "verify": {0, 1, 2},
                  "simulate": {0, 2, 4}}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), problem=st.sampled_from(["bidding", "linsearch"]),
       x_min=st.floats(-8.0, -0.5),
       h=st.floats(1 / 200, 1 / 8) | st.floats(1 / 200, 0.25),
       target=st.floats(-1e3, 1e3), seed=st.integers(0, 2**64 - 1))
def test_profile_commands_exit_as_documented(tmp_path_factory, data, problem,
                                             x_min, h, target, seed):
    s = data.draw(_profile_s[problem], label="s")
    path = tmp_path_factory.getbasetemp() / "fuzz-profile.json"
    path.unlink(missing_ok=True)

    def quiet(command, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["profile", command, *argv])
        assert code in _PROFILE_EXITS[command], (command, argv, err.getvalue())
        return code

    code = quiet("build", f"--problem={problem}", f"--s={s!r}",
                 f"--x-min={x_min!r}", f"--h={h!r}", f"--out={path}")
    assert path.exists() == (code == 0)
    if code != 0:
        return
    load_profile(str(path))
    quiet("verify", str(path))
    # the walk runs about ln(T)/(2s) steps: cheap only away from s = 0
    if s >= 0.05:
        quiet("simulate", str(path), f"--target={target!r}",
              "--samples=2000", f"--seed={seed}")


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
        # deflating the left part breaks tight robustness near 0
        scaled_bidding_file(out_file, 0.9)
        code, out, _ = run(capsys, "profile", "verify", out_file)
        assert code == 1
        assert "robustness" in out

    def test_single_bumped_value_fails_verify(self, capsys, tmp_path):
        out_file = str(tmp_path / "b.json")
        run(capsys, "profile", "build", "--problem", "bidding",
            "--s", "0.5", "--out", out_file)
        doc = json.loads(open(out_file).read())
        # at x = -2.4, above the window's first unit, from which the stored
        # tail projects: a value bumped there would not load (exit 2)
        doc["left_values"][len(doc["left_values"]) - 1501] *= 1.1
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

    @pytest.mark.parametrize("problem, s", [("bidding", "0.8"),
                                            ("linsearch", "0.9")])
    def test_profile_at_a_finer_grid_loads_and_verifies(self, capsys,
                                                        tmp_path, problem, s):
        # h = 1e-3 was the default grid before 1/625: its files still load
        out_file = str(tmp_path / "p.json")
        code, _, _ = run(capsys, "profile", "build", "--problem", problem,
                         "--s", s, "--h", "1e-3", "--out", out_file)
        assert code == 0
        assert json.loads(open(out_file).read())["h"] == 1e-3
        code, out, _ = run(capsys, "profile", "verify", out_file)
        assert code == 0, out
        assert "passed=True" in out

    @pytest.mark.parametrize("grid", [["--x-min", "-10"],
                                      ["--x-min", "-12", "--h", "0.0078125"]],
                             ids=["x_min-10", "x_min-12-h-1/128"])
    @pytest.mark.parametrize("problem, s", [("bidding", "0.8"),
                                            ("linsearch", "1.1")])
    def test_deeper_windows_build_and_verify(self, capsys, tmp_path, grid,
                                             problem, s):
        out_file = str(tmp_path / "p.json")
        code, _, _ = run(capsys, "profile", "build", "--problem", problem,
                         "--s", s, "--out", out_file, *grid)
        assert code == 0
        code, out, _ = run(capsys, "profile", "verify", out_file)
        assert code == 0, out

    def test_tiny_s_linsearch_verify_names_failure(self, capsys, tmp_path):
        # below excursion.S_MIN a build writes nothing, and a file that
        # claims such an s does not load
        out_file = tmp_path / "l.json"
        code, _, err = run(capsys, "profile", "build", "--problem",
                           "linsearch", "--s", "1e-20", "--out", str(out_file))
        assert code == 2
        assert "need s >= 1e-10" in err
        assert not out_file.exists()
        run(capsys, "profile", "build", "--problem", "linsearch",
            "--s", "1e-10", "--out", str(out_file))
        doc = json.loads(out_file.read_text())
        doc["s"] = 1e-20
        out_file.write_text(json.dumps(doc))
        for cmd in (["verify"], ["simulate", "--target", "2"]):
            code, out, err = run(capsys, "profile", cmd[0], str(out_file),
                                 *cmd[1:])
            assert (code, out) == (2, ""), cmd
            assert "need s >= 1e-10" in err

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

    @pytest.mark.parametrize("problem", ["bidding", "linsearch"])
    def test_build_where_rho_overflows_exit_2(self, capsys, tmp_path,
                                              problem):
        out_file = tmp_path / "p.json"
        code, _, err = run(capsys, "profile", "build", "--problem", problem,
                           "--s", "1e-320", "--out", str(out_file))
        assert code == 2
        assert "rho overflows" in err
        assert not out_file.exists()

    def test_deeply_nested_file_exit_2(self, capsys, tmp_path):
        # json's RecursionError is a RuntimeError, the simulation's exit 4
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        for cmd in (["verify"], ["simulate", "--target", "2"]):
            code, _, err = run(capsys, "profile", cmd[0], str(deep), *cmd[1:])
            assert code == 2, cmd
            assert "nests too deeply" in err

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
        pytest.param("bidding", lambda d: d["left_tail"]["modes"][0]
                     .__setitem__(2, d["left_tail"]["modes"][0][2] * 2.0),
                     id="tail-mode"),
        pytest.param("linsearch", lambda d: d["g_plus"]["left_tail"].update(
            modes=d["g_plus"]["left_tail"]["modes"][:-1]),
            id="plus-tail-modes"),
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
        # a tag names a profile class; a list or an object would not hash
        *[pytest.param(problem, lambda d, v=tag: d.update(problem=v),
                       id=f"{problem}-tag-{kind}")
          for problem in ("bidding", "linsearch")
          for kind, tag in (("unknown", "mystery"), ("list", [problem]),
                            ("object", {problem: problem}), ("number", 1.0))],
        # JSON booleans and integers are not the floats the writer emits
        *[pytest.param(problem, lambda d, k=key, v=value: (
            d[k] if k else d)["left_values"].__setitem__(700, v),
            id=f"{prefix}left-value-{json.dumps(value)}")
          for problem, key, prefix in (("bidding", None, ""),
                                       ("linsearch", "g_minus", "minus-"))
          for value in (True, False, 0, 1)],
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
        scaled_bidding_file(out_file, 1.5)
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
