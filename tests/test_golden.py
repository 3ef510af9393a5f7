"""Every preset's CSVs against the committed golden outputs, under the output contract.

``golden/rf`` holds the RF_DERIVED outputs of fig6 and fig16-fig19, named
as the ``{preset}_rf`` configs of the CI workflow write them.
"""

import dataclasses
import shutil
from pathlib import Path

import pytest

from output_contract import compare_csv, main
from spica import SceneMode, preset, preset_names, run_experiment

GOLDEN = Path(__file__).parent / "golden"


def _assert_matches_golden(cfg, golden_dir, out_dir):
    run_experiment(cfg, output_dir=out_dir)
    written = sorted(p.name for p in out_dir.glob("*.csv"))
    assert written == sorted(p.name for p in golden_dir.glob(f"{cfg.output}*.csv"))
    for csv_name in written:
        golden = (golden_dir / csv_name).read_text()
        _, violations = compare_csv(golden, (out_dir / csv_name).read_text())
        assert not violations, f"{csv_name}: {violations[:5]}"


@pytest.mark.parametrize("name", preset_names())
def test_preset_matches_golden_output(name, tmp_path):
    _assert_matches_golden(preset(name), GOLDEN, tmp_path)


# fig6 runs fig17's code path on a larger grid, so only CI re-runs it.
@pytest.mark.parametrize("name", ["fig16", "fig17", "fig18", "fig19"])
def test_rf_derived_matches_golden_output(name, tmp_path):
    cfg = dataclasses.replace(preset(name), mode=SceneMode.RF_DERIVED, output=f"{name}_rf")
    _assert_matches_golden(cfg, GOLDEN / "rf", tmp_path)


def _edited(csv_name: str, column: str, edit, rows=None):
    """A golden CSV's text with ``edit`` applied to ``column`` in ``rows`` (default all)."""
    lines = [line.split(",") for line in (GOLDEN / csv_name).read_text().splitlines()]
    j = lines[0].index(column)
    for i in range(1, len(lines)) if rows is None else rows:
        lines[i][j] = edit(lines[i][j])
    return "\r\n".join(",".join(cells) for cells in lines) + "\r\n"


def _violations(csv_name, column, edit, rows=None):
    return compare_csv((GOLDEN / csv_name).read_text(), _edited(csv_name, column, edit, rows))[1]


class TestComparator:
    def test_unchanged_table_passes_byte_identical(self):
        text = (GOLDEN / "fig17.csv").read_text()
        summary, violations = compare_csv(text, _edited("fig17.csv", "row", str))
        assert violations == []
        assert all(line.endswith("byte-identical") for line in summary)

    def test_measured_gain_off_by_a_micro_db_fails(self):
        bad = _violations("fig17.csv", "gain_db_measured", lambda v: repr(float(v) + 1e-6), [5])
        assert len(bad) == 1 and "gain_db_measured row 4" in bad[0]

    def test_rounding_sized_move_passes(self):
        assert _violations("fig17.csv", "gain_db_theory", lambda v: repr(float(v) + 1e-11)) == []

    def test_ideal_depths_at_infinity_pass(self):
        assert _violations("fig16.csv", "depth_db_ideal", lambda v: "inf") == []

    def test_value_crossing_150_db_fails(self):
        # fig16 row 1 reads 357 dB, fig18 row 1 57 dB and fig17 row 1 -44 dB
        assert len(_violations("fig16.csv", "depth_db_ideal", lambda v: "149.0", [1])) == 1
        assert len(_violations("fig16.csv", "depth_db_ideal", lambda v: "-200.0", [1])) == 1
        assert len(_violations("fig18.csv", "depth_db", lambda v: "150.5", [1])) == 1
        assert len(_violations("fig17.csv", "gain_db_theory", lambda v: "-inf", [1])) == 1

    def test_freq_cell_byte_change_fails(self):
        # 1000000.0 and 1e6 are the same float but not the same bytes
        bad = _violations("fig17.csv", "freq_hz", lambda v: "1e6", [1])
        assert len(bad) == 1 and "must keep its bytes" in bad[0]

    def test_evm_and_constellation_tolerances(self):
        def scaled(k):
            return lambda v: repr(float(v) * k)

        assert _violations("fig19.csv", "evm_percent", scaled(1 + 5e-10)) == []
        assert len(_violations("fig19.csv", "evm_percent", scaled(1 + 2e-9), [2])) == 1
        shift = lambda d: lambda v: repr(float(v) + d)  # noqa: E731
        assert _violations("fig19_constellation.csv", "rx_im", shift(5e-10)) == []
        assert len(_violations("fig19_constellation.csv", "rx_re", shift(2e-9), [3])) == 1
        assert len(_violations("fig19_constellation.csv", "ref_re", shift(0.0), [3])) == 0
        assert len(_violations("fig19_constellation.csv", "ref_re", lambda v: v + "0", [3])) == 1

    def test_header_and_row_count_must_match(self):
        text = (GOLDEN / "fig18.csv").read_text()
        assert compare_csv(text, text.replace("depth_db", "depth"))[1]
        assert compare_csv(text, "".join(text.splitlines(keepends=True)[:-1]))[1]
        assert compare_csv(text, "")[1] == ["new CSV empty"]


class TestCheckerScript:
    """``output_contract.main``, the ``OLD_DIR NEW_DIR`` script mode, on copies of golden CSVs."""

    @pytest.fixture
    def dirs(self, tmp_path):
        pair = [tmp_path / "old", tmp_path / "new"]
        for d in pair:
            d.mkdir()
            for name in ("fig10.csv", "fig18.csv"):
                shutil.copy(GOLDEN / name, d)
        return pair

    def test_identical_dirs_pass(self, dirs, capsys):
        assert main(map(str, dirs)) == 0
        assert capsys.readouterr().out.count("byte-identical") == 2

    def test_csv_missing_from_new_dir_fails_and_the_rest_is_reported(self, dirs, capsys):
        (dirs[1] / "fig10.csv").unlink()
        assert main(map(str, dirs)) == 1
        out = capsys.readouterr().out
        assert f"fig10.csv: only in {dirs[0]}" in out and "fig18.csv: byte-identical" in out

    def test_csv_only_in_new_dir_fails(self, dirs, capsys):
        shutil.copy(GOLDEN / "fig19.csv", dirs[1])
        assert main(map(str, dirs)) == 1
        assert f"fig19.csv: only in {dirs[1]}" in capsys.readouterr().out

    def test_empty_csv_fails_and_the_rest_is_reported(self, dirs, capsys):
        # empty files, as runs killed before their header leave, sort first here
        for d in dirs:
            (d / "empty.csv").write_text("")
        assert main(map(str, dirs)) == 1
        out = capsys.readouterr().out
        assert "empty.csv: old and new CSV empty" in out
        assert "fig10.csv: byte-identical" in out and "fig18.csv: byte-identical" in out

    def test_old_dir_without_csv_fails(self, dirs, capsys):
        assert main([str(dirs[0] / "typo"), str(dirs[1])]) == 1
        assert "no CSV" in capsys.readouterr().out
