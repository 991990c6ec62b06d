"""CSV ingestion, model persistence, exports, and the CLI pipeline."""

import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import fit_result, make_hp, make_side, random_contribution
from xfile.cli import main
from xfile.io import (
    MatrixParseError,
    export_analysis,
    load_matrix,
    load_model,
    load_side_info,
    save_matrix,
    save_model,
    write_fit_outputs,
    write_pgm,
)
from xfile.model import (
    ObservedMatrix,
    SideInfo,
    Transform,
    hyperparams_from_dict,
    materialize,
    similarity_matrix,
)
from xfile.optimizer import fit
from xfile.shrinkage import ShrinkageParams


# Matrix CSVs at the edges of the format: (file text, has_header, what
# load_matrix gives), either the rows read, None for an empty field, or the
# error raised, whose message follows the file's path for a MatrixParseError.
# No case may warn.
EDGE_CASES = {
    "blank-line": ("1,2\n\n3,4\n", False, MatrixParseError("row 2 has 0 fields, expected 2")),
    "blank-last-line": ("1,2\n3,4\n\n", False,
                        MatrixParseError("row 3 has 0 fields, expected 2")),
    "whitespace-line": ("a,b\n1,2\n \t\n", True,
                        MatrixParseError("row 3 has 1 fields, expected 2")),
    "quoted-empty": ('1,""\n3,4\n', False, [[1.0, None], [3.0, 4.0]]),
    "quoted-number": ('"1.5",2\n', False, [[1.5, 2.0]]),
    "underscore": ("1_0,2\n", False, [[10.0, 2.0]]),
    "fullwidth-digit": ("\uff11,2\n", False, [[1.0, 2.0]]),
    "cr-endings": ("1,2\r3,4\r", False, [[1.0, 2.0], [3.0, 4.0]]),
    "crlf-endings": ("a,b\r\n1,2\r\n3,4\r\n", True, [[1.0, 2.0], [3.0, 4.0]]),
    "hash": ("#1,2\n", False, MatrixParseError("row 1, column 1: not a number: '#1'")),
    "inline-hash": ("1,2#3\n", False, MatrixParseError("row 1, column 2: not a number: '2#3'")),
    "blank-lines-only": ("\n\n", False, MatrixParseError("no data rows")),
    "blank-lines-after-header": ("a,b\n\n\n", True, MatrixParseError("no data rows")),
    "trailing-comma": ("1,2,\n3,4,\n", False, [[1.0, 2.0, None], [3.0, 4.0, None]]),
    "ragged": ("a,b\n1,2\n3\n", True, MatrixParseError("row 3 has 1 fields, expected 2")),
    "empty": ("", False, MatrixParseError("no data rows")),
    "header-only": ("a,b\n", True, MatrixParseError("no data rows")),
    "form-feed": ("\f1,2\n3,4\f\n", False, [[1.0, 2.0], [3.0, 4.0]]),
    "infinity": ("Infinity,1\n", False, MatrixParseError("non-finite value at row 1, column 1")),
    "nan-after-header": ("a,b\n1,2\n3,nan\n", True,
                         MatrixParseError("non-finite value at row 3, column 2")),
    "no-final-newline": ("1,2\n3,4", False, [[1.0, 2.0], [3.0, 4.0]]),
    "quoted-header": ('"a","b"\n1,2\n', True, [[1.0, 2.0]]),
    "header-spans-lines": ('"a\n1,2\n",b\n3,4\n', True, [[3.0, 4.0]]),
    "header-unclosed-quote": ('"a\n1,2\n', True, MatrixParseError("no data rows")),
    "empty-fields-only": (",\n,\n", False, MatrixParseError("no observed cells")),
    "missing-in-last-row": ("1,2\n3,4\n5,\n", False, [[1.0, 2.0], [3.0, 4.0], [5.0, None]]),
    "bad-cell-after-header": ("a,b\n1,2\n3,x\n", True,
                              MatrixParseError("row 3, column 2: not a number: 'x'")),
}


class TestLoadMatrix:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, has_header, expected", EDGE_CASES.values(),
                             ids=EDGE_CASES.keys())
    def test_edge_cases(self, tmp_path, text, has_header, expected):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        if isinstance(expected, Exception):
            message = f"{path}: {expected}" if isinstance(expected, MatrixParseError) else expected
            with pytest.raises(ValueError, match=f"^{re.escape(str(message))}$") as info:
                load_matrix(path, has_header)
            assert type(info.value) is type(expected)
            return
        data = load_matrix(path, has_header)
        mask = np.array([[cell is not None for cell in row] for row in expected])
        np.testing.assert_array_equal(data.mask, mask)
        np.testing.assert_array_equal(
            data.values[mask], [cell for row in expected for cell in row if cell is not None])

    @given(values=hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                             elements=st.floats(allow_nan=False, allow_infinity=False)),
           holes=st.booleans(), has_header=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_any_shape(self, tmp_path_factory, values, holes, has_header, data):
        mask = data.draw(hnp.arrays(bool, values.shape)) if holes else np.ones(values.shape, bool)
        assume(mask.any())
        path = tmp_path_factory.mktemp("roundtrip") / "m.csv"
        save_matrix(path, values, mask if holes else None)
        if has_header:
            path.write_text(",".join(f"c{j}" for j in range(values.shape[1])) + "\n"
                            + path.read_text())
        back = load_matrix(path, has_header)
        np.testing.assert_array_equal(back.mask, mask)
        assert back.values[mask].tobytes() == values[mask].tobytes()

    def test_missing_cell(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,\n")
        data = load_matrix(path)
        assert data.shape == (2, 2)
        np.testing.assert_array_equal(data.mask, [[True, True], [True, False]])
        assert data.values[0, 1] == 2.0

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n")
        data = load_matrix(path, has_header=True)
        assert data.shape == (1, 2)

    def test_ragged_row_located(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(MatrixParseError, match="row 2"):
            load_matrix(path)

    def test_bad_cell_located(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(MatrixParseError, match="row 2, column 2"):
            load_matrix(path)

    def test_roundtrip_bit_identical(self, tmp_path, rng):
        values = rng.standard_normal((7, 5))
        mask = rng.random((7, 5)) > 0.2
        path = tmp_path / "m.csv"
        save_matrix(path, values, mask)
        back = load_matrix(path)
        np.testing.assert_array_equal(back.mask, mask)
        np.testing.assert_array_equal(back.values[mask], values[mask])

    def test_side_info_intercept_prepended(self, tmp_path, rng):
        x = rng.standard_normal((4, 2))
        path = tmp_path / "x.csv"
        save_matrix(path, x)
        side = load_side_info(path, None, 4, 6)
        assert side.x.shape == (4, 3)
        np.testing.assert_array_equal(side.x[:, 0], np.ones(4))
        np.testing.assert_array_equal(side.x[:, 1:], x)
        assert side.w.shape == (6, 1)

    @pytest.mark.parametrize("has_header", [False, True])
    def test_negative_value_located_under_truncation(self, tmp_path, has_header):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n" * has_header + "1,2\n3,\n0,-1\n")
        assert load_matrix(path, has_header).values[2, 1] == -1.0
        with pytest.raises(MatrixParseError, match=re.escape(
                f"{path}: negative value under truncation at row {3 + has_header}, column 2")):
            load_matrix(path, has_header, Transform.NONNEG_TRUNCATION)

    @pytest.mark.parametrize("has_header", [False, True])
    def test_side_info_blank_lines_rejected(self, tmp_path, has_header):
        path = tmp_path / "x.csv"
        path.write_text("a\n" * has_header + "\n" * 5)
        with pytest.raises(MatrixParseError, match=re.escape(f"{path}: no data rows")):
            load_side_info(path, None, 5, 6, has_header=has_header)

    @pytest.mark.parametrize("has_header", [False, True])
    def test_side_info_missing_cell_located(self, tmp_path, has_header):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n" * has_header + "1,2\n3,4\n5,\n")
        row = 4 if has_header else 3
        with pytest.raises(MatrixParseError, match=re.escape(
                f"{path}: missing covariate value at row {row}, column 2")):
            load_side_info(path, None, 3, 6, has_header=has_header)


def _savetxt(values) -> bytes:
    """What ``np.savetxt`` writes for ``values`` in the matrix CSV format."""
    buf = io.StringIO()
    np.savetxt(buf, values, fmt="%.17g", delimiter=",")
    return buf.getvalue().encode()


class TestMatrixFormat:
    def test_exact_text(self, tmp_path):
        values = np.array([[-0.0, np.nan, np.inf, 1e300, 5e-324, 0.1]])
        save_matrix(tmp_path / "row.csv", values)
        save_matrix(tmp_path / "col.csv", values.T)
        row = (b"-0,nan,inf,1.0000000000000001e+300,4.9406564584124654e-324,"
               b"0.10000000000000001\n")
        assert (tmp_path / "row.csv").read_bytes() == row == _savetxt(values)
        assert (tmp_path / "col.csv").read_bytes() == row.replace(b",", b"\n")
        assert (tmp_path / "col.csv").read_bytes() == _savetxt(values.T)

    def test_one_column_missing_cell_roundtrips(self, tmp_path):
        path = tmp_path / "m.csv"
        mask = np.array([[True], [False], [True]])
        save_matrix(path, np.array([[1.5], [np.nan], [-2.0]]), mask)
        assert path.read_bytes() == b'1.5\n""\n-2\n'
        back = load_matrix(path)
        np.testing.assert_array_equal(back.mask, mask)
        np.testing.assert_array_equal(back.values[mask], [1.5, -2.0])

    def test_rank_zero_model_bytes(self, tmp_path):
        n, p = 7, 5
        side = SideInfo(x=np.column_stack([np.ones(n), np.arange(n) / 3.0]),
                        w=np.column_stack([np.ones(p), np.linspace(-1.0, 1.0, p), np.ones(p) / 7]))
        residual = np.arange(n * p).reshape(n, p) / 9.0 - 1.5
        save_model(tmp_path, fit_result([], residual), side, Transform.IDENTITY, 0.0)
        sizes = {"u_tilde": n, "psi_tilde": n, "beta": 2, "v_tilde": p, "phi_tilde": p,
                 "gamma": 3}
        for name, size in sizes.items():
            assert (tmp_path / f"{name}.csv").read_bytes() == b"\n" * size, name
        assert (tmp_path / "theta.csv").read_bytes() == b""
        for name, values in (("x", side.x), ("w", side.w), ("latent_residual", residual)):
            assert (tmp_path / f"{name}.csv").read_bytes() == _savetxt(values), name


def _small_fit(rng, transform=Transform.IDENTITY):
    n = p = 12
    values = rng.standard_normal((n, p)) + 2.0 * np.outer(
        rng.standard_normal(n), rng.standard_normal(p)
    )
    if transform == Transform.NONNEG_TRUNCATION:
        values = np.maximum(values, 0.0)
    side = make_side(n, p, 2, 2, rng)
    data = ObservedMatrix(values, np.ones((n, p), bool), transform)
    hp = make_hp(seed=6, n_restarts=2, max_inner_iters=60,
                 shrink=ShrinkageParams(2.0, 0.0))
    return fit(data, side, hp), side, data, hp


class TestModelPersistence:
    def test_roundtrip(self, tmp_path, rng):
        result, side, data, hp = _small_fit(rng)
        assert result.rank >= 1
        save_model(tmp_path, result, side, data.transform, hp.eps_frelu)
        loaded, side2, transform, eps = load_model(tmp_path)
        assert transform == data.transform
        assert eps == hp.eps_frelu
        assert loaded.rank == result.rank
        np.testing.assert_array_equal(side2.x, side.x)
        for a, b in zip(result.contributions, loaded.contributions):
            np.testing.assert_array_equal(a.u_tilde, b.u_tilde)
            np.testing.assert_array_equal(a.psi_tilde, b.psi_tilde)
            np.testing.assert_array_equal(a.beta, b.beta)
            np.testing.assert_array_equal(a.v_tilde, b.v_tilde)
            np.testing.assert_array_equal(a.phi_tilde, b.phi_tilde)
            np.testing.assert_array_equal(a.gamma, b.gamma)
            assert a.eta == b.eta and a.rho == b.rho
        np.testing.assert_allclose(
            materialize(loaded.contributions, side2, eps),
            materialize(result.contributions, side, hp.eps_frelu),
        )

    @pytest.mark.parametrize("rank", [3, 0])
    def test_save_load_save_byte_identical(self, tmp_path, rng, rank):
        n, p = 7, 5
        side = make_side(n, p, 3, 2, rng)
        result = fit_result([random_contribution(n, p, 3, 2, rng) for _ in range(rank)],
                             rng.standard_normal((n, p)))
        save_model(tmp_path / "a", result, side, Transform.NONNEG_TRUNCATION, 0.25)
        save_model(tmp_path / "b", *load_model(tmp_path / "a"))
        names = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert len(names) == 11  # manifest, six families, theta, x, w, residual
        assert sorted(f.name for f in (tmp_path / "b").iterdir()) == names
        for name in names:
            first, second = ((tmp_path / d / name).read_bytes() for d in "ab")
            assert second == first, name

    def test_empty_field_located(self, tmp_path, rng):
        n, p = 6, 5
        save_model(tmp_path, fit_result([random_contribution(n, p, 2, 3, rng)], np.zeros((n, p))),
                   make_side(n, p, 2, 3, rng), Transform.IDENTITY, 0.0)
        path = tmp_path / "w.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[2].split(",")
        lines[2] = ",".join(cells[:1] + [""] + cells[2:])
        path.write_text("".join(lines))
        with pytest.raises(MatrixParseError,
                           match=re.escape(f"{path}: missing value at row 3, column 2")):
            load_model(tmp_path)

    def test_fit_outputs_written(self, tmp_path, rng):
        result, side, data, hp = _small_fit(rng)
        write_fit_outputs(tmp_path, result, side, data.transform, hp.eps_frelu)
        assert (tmp_path / "rank.txt").read_text().strip() == str(result.rank)
        assert (tmp_path / "contributions.csv").exists()
        assert (tmp_path / "logpost_trace.csv").exists()
        fitted = load_matrix(tmp_path / "fitted.csv")
        np.testing.assert_allclose(
            fitted.values, materialize(result.contributions, side, 0.0), atol=1e-12
        )

    def test_truncated_fit_outputs_both_scales(self, tmp_path, rng):
        result, side, data, hp = _small_fit(rng, Transform.NONNEG_TRUNCATION)
        write_fit_outputs(tmp_path, result, side, data.transform, hp.eps_frelu)
        latent = load_matrix(tmp_path / "fitted_latent.csv").values
        observed = load_matrix(tmp_path / "fitted_observed.csv").values
        np.testing.assert_allclose(observed, np.maximum(latent, 0.0), atol=1e-12)
        assert np.all(observed >= 0.0)


class TestExports:
    def test_analysis_files(self, tmp_path, rng):
        result, side, data, hp = _small_fit(rng)
        export_analysis(result, side, tmp_path, grid_rows=3, grid_cols=4)
        arch = np.loadtxt(tmp_path / "archetypes.csv", delimiter=",", ndmin=2)
        for h, c in enumerate(result.contributions):
            np.testing.assert_allclose(arch[:, h], c.phi_tilde * c.v_tilde)
        signs = np.loadtxt(tmp_path / "loading_signs.csv", delimiter=",", ndmin=2)
        assert set(np.unique(signs)) <= {-1.0, 0.0, 1.0}
        sim = np.loadtxt(tmp_path / "similarity.csv", delimiter=",", ndmin=2)
        np.testing.assert_allclose(np.diag(sim), np.ones(12), atol=1e-12)
        np.testing.assert_allclose(sim, similarity_matrix(result, side), atol=1e-12)

    def test_pgm_format(self, tmp_path, rng):
        result, side, data, hp = _small_fit(rng)
        export_analysis(result, side, tmp_path, grid_rows=3, grid_cols=4)
        for h in range(1, result.rank + 1):
            raw = (tmp_path / f"archetype_{h}.pgm").read_bytes()
            assert raw.startswith(b"P5\n4 3\n255\n")
            assert len(raw) == len(b"P5\n4 3\n255\n") + 12
            meta = json.loads((tmp_path / f"archetype_{h}.json").read_text())
            assert meta["rows"] == 3 and meta["cols"] == 4
            assert meta["min"] <= meta["max"]

    def test_pgm_rescaling(self, tmp_path):
        meta = write_pgm(tmp_path / "t.pgm", np.array([[0.0, 1.0], [2.0, 4.0]]))
        raw = (tmp_path / "t.pgm").read_bytes()
        pixels = list(raw[len(b"P5\n2 2\n255\n"):])
        assert pixels == [0, 64, 128, 255]
        assert meta == {"min": 0.0, "max": 4.0, "rows": 2, "cols": 2}

    def test_rank_zero_warns(self, tmp_path):
        empty = fit_result([], np.zeros((3, 3)))
        with pytest.warns(UserWarning, match="rank-0"):
            export_analysis(empty, make_side(3, 3), tmp_path)
        assert (tmp_path / "archetypes.csv").read_text() == ""

    def test_bad_grid_rejected(self, tmp_path, rng):
        result, side, data, hp = _small_fit(rng)
        with pytest.raises(ValueError, match="grid"):
            export_analysis(result, side, tmp_path, grid_rows=5, grid_cols=5)


class TestHyperParamsJson:
    def test_flat_keys(self):
        hp = hyperparams_from_dict({"alpha": 2.0, "delta": 0.1, "b_sigma": 0.3,
                                    "seed": 9})
        assert hp.shrink.alpha == 2.0 and hp.shrink.delta == 0.1
        assert hp.b_sigma == 0.3 and hp.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            hyperparams_from_dict({"alhpa": 2.0})


class TestCli:
    def test_no_args_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["prior", "--alpha", "1", "--bogus"]) == 2

    def test_prior_stdout(self, capsys):
        assert main(["prior", "--alpha", "5", "--delta", "0",
                     "--draws", "1000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# E[k] = 5")
        assert "k,probability" in out

    def test_prior_to_file(self, tmp_path, capsys):
        out = tmp_path / "pmf.csv"
        assert main(["prior", "--alpha", "2", "--draws", "500",
                     "--seed", "1", "--out", str(out)]) == 0
        assert out.read_text().startswith("k,probability")
        cfg = json.loads((tmp_path / "config_used.json").read_text())
        assert cfg["alpha"] == 2.0 and cfg["seed"] == 1

    def test_prior_negative_seed_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "prior" / "pmf.csv"
        assert main(["prior", "--alpha", "5", "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert not out.parent.exists()

    def test_fit_predict_pipeline(self, tmp_path, rng):
        n = p = 10
        values = rng.standard_normal((n, p)) + 2.0 * np.outer(
            rng.standard_normal(n), rng.standard_normal(p)
        )
        mask = rng.random((n, p)) > 0.15
        data_path = tmp_path / "data.csv"
        save_matrix(data_path, values, mask)
        cfg_path = tmp_path / "hp.json"
        cfg_path.write_text(json.dumps({
            "alpha": 2.0, "b_sigma": 0.5, "n_restarts": 2,
            "max_inner_iters": 60, "max_factors": 3,
        }))
        out_dir = tmp_path / "run"
        assert main(["fit", "--data", str(data_path), "--config", str(cfg_path),
                     "--seed", "3", "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "config_used.json").exists()
        rank = int((out_dir / "rank.txt").read_text())
        assert rank >= 1

        # predictions for the held-out cells must match the fitted matrix
        mask_path = tmp_path / "predict_mask.csv"
        save_matrix(mask_path, (~mask).astype(float))
        pred_path = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(out_dir), "--mask", str(mask_path),
                     "--out", str(pred_path)]) == 0
        fitted = load_matrix(out_dir / "fitted.csv").values
        lines = pred_path.read_text().strip().splitlines()[1:]
        assert len(lines) == int((~mask).sum())
        for line in lines:
            i, j, val = line.split(",")
            assert float(val) == pytest.approx(fitted[int(i), int(j)], rel=1e-12)

    def test_fit_reproducibility_bitwise(self, tmp_path, rng):
        values = rng.standard_normal((8, 8))
        data_path = tmp_path / "d.csv"
        save_matrix(data_path, values)
        args = lambda out: ["fit", "--data", str(data_path), "--seed", "5",
                            "--out-dir", str(out)]
        assert main(args(tmp_path / "a")) == 0
        assert main(args(tmp_path / "b")) == 0
        for name in ("u_tilde.csv", "v_tilde.csv", "theta.csv", "fitted.csv",
                     "contributions.csv", "rank.txt", "logpost_trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_fit_nonneg_transform(self, tmp_path, rng):
        values = np.maximum(
            rng.standard_normal((10, 8))
            + np.outer(np.abs(rng.standard_normal(10)), np.abs(rng.standard_normal(8))),
            0.0,
        )
        data_path = tmp_path / "d.csv"
        save_matrix(data_path, values)
        out = tmp_path / "run"
        assert main(["fit", "--data", str(data_path), "--transform", "nonneg",
                     "--seed", "4", "--out-dir", str(out)]) == 0
        observed = load_matrix(out / "fitted_observed.csv").values
        assert np.all(observed >= 0.0)
        cfg = json.loads((out / "config_used.json").read_text())
        assert cfg["transform"] == "nonneg"

    def test_export_command(self, tmp_path, rng):
        values = rng.standard_normal((9, 8)) + 2.0 * np.outer(
            rng.standard_normal(9), rng.standard_normal(8)
        )
        data_path = tmp_path / "d.csv"
        save_matrix(data_path, values)
        run = tmp_path / "run"
        assert main(["fit", "--data", str(data_path), "--seed", "2",
                     "--out-dir", str(run)]) == 0
        exp = tmp_path / "exp"
        assert main(["export", "--model", str(run), "--out-dir", str(exp),
                     "--grid-rows", "2", "--grid-cols", "4"]) == 0
        assert (exp / "similarity.csv").exists()
        assert (exp / "config_used.json").exists()

    def test_gridless_export_is_no_numeric_fault(self, tmp_path, rng):
        # skipping the PGM maps is a usage notice, so an export without a
        # grid completes where RuntimeWarnings are errors
        values = rng.standard_normal((9, 8)) + 2.0 * np.outer(
            rng.standard_normal(9), rng.standard_normal(8)
        )
        data_path = tmp_path / "d.csv"
        save_matrix(data_path, values)
        run = tmp_path / "run"
        assert main(["fit", "--data", str(data_path), "--seed", "2",
                     "--out-dir", str(run)]) == 0
        exp = tmp_path / "exp"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["export", "--model", str(run), "--out-dir", str(exp)]) == 0
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "no grid shape given: skipping PGM archetype maps")]
        assert (exp / "similarity.csv").stat().st_size > 0

    def test_simulate_command(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "n": 15, "p": 12, "k_true": 2, "q_x": 2, "q_w": 2,
            "dgp": "multiplicative", "holdout_fraction": 0.2,
            "sparsity_fraction": 0.25, "noise_sd": 1.0,
            "n_replicates": 2, "seed": 3,
        }))
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps({"n_restarts": 2, "max_inner_iters": 40,
                                   "max_factors": 3, "zeta_n": 0.15, "zeta_p": 0.15}))
        out = tmp_path / "report.csv"
        assert main(["simulate", "--scenario", str(scenario), "--config", str(cfg),
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "replicate,model,rmse,rank_selected,wall_time_ms" in text
        assert text.count("xfile") >= 2

    def test_simulate_grid_flag(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "n": 12, "p": 10, "k_true": 2, "q_x": 2, "q_w": 2,
            "dgp": "multiplicative", "holdout_fraction": 0.2,
            "sparsity_fraction": 0.25, "noise_sd": 1.0,
            "n_replicates": 1, "seed": 4,
        }))
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps({"n_restarts": 1, "max_inner_iters": 30,
                                   "max_factors": 2}))
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"alpha": [1.0, 3.0]}))
        out = tmp_path / "report.csv"
        assert main(["simulate", "--scenario", str(scenario), "--config", str(cfg),
                     "--grid", str(grid), "--out", str(out)]) == 0
        cfg_used = json.loads((tmp_path / "config_used.json").read_text())
        assert len(cfg_used["grid_trials"]) == 2
        assert cfg_used["hyper"]["alpha"] in (1.0, 3.0)

    @pytest.mark.parametrize("shape", [(8, 7), (2, 2)])
    def test_predict_mask_shape_mismatch(self, tmp_path, rng, capsys, shape):
        model = tmp_path / "model"
        result = fit_result([random_contribution(6, 5, 1, 1, rng)], np.zeros((6, 5)))
        save_model(model, result, make_side(6, 5), Transform.IDENTITY, 0.0)
        mask_path = tmp_path / "mask.csv"
        save_matrix(mask_path, np.ones(shape))
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--mask", str(mask_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(shape) in err and "(6, 5)" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, keep", [
        ("theta.csv", lambda text: b""),
        ("latent_residual.csv", lambda text: text[:20]),
        ("x.csv", lambda text: b"".join(text.splitlines(keepends=True)[:2])),
        ("manifest.json", lambda text: text.replace(b'"q_x"', b'"q"')),
        ("theta.csv", lambda text: text.replace(b",1\n", b",0.5\n", 1)),
    ], ids=["empty-theta", "cut-residual", "two-row-x", "manifest-without-q_x", "half-rho"])
    def test_predict_model_file_disagrees_with_manifest(self, tmp_path, rng, capsys, name,
                                                        keep):
        n, p = 6, 5
        model = tmp_path / "model"
        result = fit_result([random_contribution(n, p, 2, 2, rng) for _ in range(3)],
                            rng.standard_normal((n, p)))
        save_model(model, result, make_side(n, p, 2, 2, rng), Transform.IDENTITY, 0.0)
        damaged = model / name
        damaged.write_bytes(keep(damaged.read_bytes()))
        mask_path = tmp_path / "mask.csv"
        save_matrix(mask_path, np.ones((n, p)))
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model), "--mask", str(mask_path),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(damaged) in err, err
        assert not out.exists()

    def test_export_inactive_factor_writes_nothing(self, tmp_path, rng, capsys):
        model = tmp_path / "model"
        result = fit_result([random_contribution(9, 8, 1, 1, rng, rho=rho) for rho in (1, 0)],
                            np.zeros((9, 8)))
        save_model(model, result, make_side(9, 8), Transform.IDENTITY, 0.0)
        exp = tmp_path / "exp"
        assert main(["export", "--model", str(model), "--out-dir", str(exp),
                     "--grid-rows", "2", "--grid-cols", "4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "factor 2" in err, err
        assert not exp.exists()

    @pytest.mark.parametrize("grid", [["--grid-rows", "3", "--grid-cols", "3"],
                                      ["--grid-rows", "2"],
                                      ["--grid-rows", "-2", "--grid-cols", "-4"]])
    def test_export_bad_grid_writes_nothing(self, tmp_path, rng, capsys, grid):
        model = tmp_path / "model"
        result = fit_result([random_contribution(9, 8, 1, 1, rng)], np.zeros((9, 8)))
        save_model(model, result, make_side(9, 8), Transform.IDENTITY, 0.0)
        exp = tmp_path / "exp"
        assert main(["export", "--model", str(model), "--out-dir", str(exp), *grid]) == 1
        assert capsys.readouterr().err.startswith("error:")
        for name in ("archetypes.csv", "loading_signs.csv", "similarity.csv"):
            assert not (exp / name).exists()

    def test_simulate_unknown_scenario_key(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"n": 15, "bogus": 1}))
        out = tmp_path / "report.csv"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bogus" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [("fit", "--config"), ("simulate", "--scenario")])
    def test_json_input_must_be_an_object(self, tmp_path, capsys, command, flag):
        data_path = tmp_path / "d.csv"
        save_matrix(data_path, np.ones((3, 3)))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"n": 15}]))
        args = {"fit": ["--data", str(data_path), "--out-dir", str(tmp_path / "o")],
                "simulate": ["--out", str(tmp_path / "r.csv")]}[command]
        assert main([command, flag, str(bad)] + args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON object" in err

    @pytest.mark.parametrize("flag", ["--config", "--scenario", "--grid"])
    def test_invalid_json_names_its_file(self, tmp_path, capsys, flag):
        data_path = tmp_path / "d.csv"
        save_matrix(data_path, np.ones((3, 3)))
        good = {"--config": {"n_restarts": 1}, "--grid": {"alpha": [1.0]},
                "--scenario": {"n": 12, "p": 12, "n_replicates": 1}}
        paths = {}
        for key, raw in good.items():
            paths[key] = tmp_path / f"{key[2:]}.json"
            paths[key].write_text("" if key == flag else json.dumps(raw))
        if flag == "--config":
            args = ["fit", "--data", str(data_path), "--out-dir", str(tmp_path / "o")]
        else:
            args = ["simulate", "--scenario", str(paths["--scenario"]),
                    "--grid", str(paths["--grid"]), "--out", str(tmp_path / "o" / "r.csv")]
        assert main(args + ["--config", str(paths["--config"])]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {paths[flag]}: "), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [{"max_factors": 2.5}, {"tol": "1e-8"},
                                        {"n_restarts": 1.5}, {"seed": True},
                                        {"alpha": "5", "delta": False}, {"delta": False},
                                        {"alpha": True}, {"alpha": "abc"}, {"seed": -1},
                                        {"eps_frelu": float("nan")}, {"alpha": float("inf")},
                                        {"b_sigma": float("inf")}])
    def test_fit_malformed_hyperparams(self, tmp_path, capsys, config):
        data_path = tmp_path / "d.csv"
        save_matrix(data_path, np.ones((4, 3)))
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert main(["fit", "--data", str(data_path), "--config", str(cfg),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(config)) in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,config", [
        ("--scenario", {"n": "12"}), ("--scenario", {"n_replicates": 1.5}),
        ("--scenario", {"noise_sd": "1"}), ("--config", {"max_inner_iters": True}),
        ("--scenario", {"seed": -1}), ("--scenario", {"noise_sd": float("inf")}),
    ])
    def test_simulate_malformed_inputs(self, tmp_path, capsys, flag, config):
        paths = {}
        for key, raw in (("--scenario", {"n": 12, "p": 12, "n_replicates": 1}),
                         ("--config", {"max_inner_iters": 5, "n_restarts": 1})):
            paths[key] = tmp_path / f"{key[2:]}.json"
            paths[key].write_text(json.dumps({**raw, **(config if key == flag else {})}))
        out = tmp_path / "run" / "report.csv"
        assert main(["simulate", "--scenario", str(paths["--scenario"]),
                     "--config", str(paths["--config"]), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and next(iter(config)) in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("grid", [{"alhpa": [1.0, 2.0]}, {"alpha": []}, {"alpha": 5}])
    def test_simulate_bad_grid(self, tmp_path, capsys, grid):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"n": 12, "p": 10, "k_true": 2, "q_x": 2, "q_w": 2,
                                        "n_replicates": 1, "seed": 4}))
        cfg = tmp_path / "hp.json"
        cfg.write_text(json.dumps({"n_restarts": 1, "max_inner_iters": 5, "max_factors": 2}))
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid))
        out = tmp_path / "run" / "report.csv"
        assert main(["simulate", "--scenario", str(scenario), "--config", str(cfg),
                     "--grid", str(grid_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.parent.exists()

    def test_no_written_file_has_carriage_returns(self, tmp_path, rng, monkeypatch):
        monkeypatch.chdir(tmp_path)
        values = rng.standard_normal((9, 8)) + 2.0 * np.outer(
            rng.standard_normal(9), rng.standard_normal(8)
        )
        mask = np.ones(values.shape, dtype=bool)
        mask[4, 3] = False
        save_matrix("d.csv", values, mask)
        save_matrix("want.csv", (~mask).astype(float))
        (tmp_path / "hp.json").write_text(json.dumps({"n_restarts": 1, "max_inner_iters": 20,
                                                      "max_factors": 2}))
        (tmp_path / "scenario.json").write_text(json.dumps({
            "n": 12, "p": 12, "k_true": 2, "q_x": 2, "q_w": 2, "n_replicates": 1, "seed": 1}))
        for args in (
            ["prior", "--alpha", "5", "--draws", "200", "--out", "prior/pmf.csv"],
            ["fit", "--data", "d.csv", "--config", "hp.json", "--seed", "2", "--out-dir", "run"],
            ["predict", "--model", "run", "--mask", "want.csv", "--out", "pred/pred.csv"],
            ["export", "--model", "run", "--out-dir", "exp", "--grid-rows", "2",
             "--grid-cols", "4"],
            ["simulate", "--scenario", "scenario.json", "--config", "hp.json",
             "--out", "sim/report.csv"],
        ):
            assert main(args) == 0, args
        written = [f for f in tmp_path.rglob("*") if f.is_file()]
        assert len(written) > 20
        for f in written:
            if f.suffix != ".pgm":  # a binary raster may hold the byte 13
                assert b"\r" not in f.read_bytes(), f

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "absent.csv"),
                     "--out-dir", str(tmp_path / "o")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("data, covariates, flags, expected", [
        ("1,2\n3,inf\n", None, [], "{data}: non-finite value at row 2, column 2"),
        ("1,2\n3,-1\n", None, ["--transform", "nonneg"],
         "{data}: negative value under truncation at row 2, column 2"),
        ("1,2\n3,4\n", "\n" * 5, [], "{covariates}: no data rows"),
        (",\n,\n", None, [], "{data}: no observed cells"),
    ], ids=["non-finite", "negative", "blank-covariates", "empty-fields-only"])
    def test_fit_bad_input_names_file_and_cell(self, tmp_path, capsys, data, covariates, flags,
                                               expected):
        paths = {"data": tmp_path / "d.csv", "covariates": tmp_path / "x.csv"}
        paths["data"].write_text(data)
        args = ["fit", "--data", str(paths["data"]), "--out-dir", str(tmp_path / "o")] + flags
        if covariates is not None:
            paths["covariates"].write_text(covariates)
            args += ["--covariates", str(paths["covariates"])]
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {expected.format(**paths)}\n"
        assert not (tmp_path / "o").exists()
