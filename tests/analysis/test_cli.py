"""CLI entry point."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestArgs:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig16" in out and "table3" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "448" in out and "320" in out

    def test_fig21_needs_no_simulation(self, capsys):
        assert main(["fig21"]) == 0
        assert "bytes" in capsys.readouterr().out

    def test_series_experiment_with_scale(self, capsys):
        assert main(["fig9", "--scale", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "lps" in out and "mean" in out

    @pytest.mark.parametrize("argv", [
        ["fig9", "--scale", "0"], ["fig16", "--scale", "nan"],
    ])
    def test_experiment_rejects_a_scale_that_is_not_positive(self, argv,
                                                              capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "scale must be finite and > 0" in captured.err
        assert captured.out == ""


class TestSweepCommand:
    ARGS = [
        "sweep", "--apps", "lps", "--mechanisms", "none,snake",
        "--jobs", "0", "--scale", "0.05",
    ]

    def test_sweep_lists_in_list(self, capsys):
        assert main(["list"]) == 0
        assert "sweep" in capsys.readouterr().out.split()

    def test_sweep_runs_and_reports(self, tmp_path, capsys):
        ckpt = tmp_path / "sweep.jsonl"
        assert main(self.ARGS + ["--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "2 executed, 0 reused" in out
        assert "0 failed" in out
        assert "coverage" in out
        assert ckpt.exists()

    def test_sweep_resumes_from_checkpoint(self, tmp_path, capsys):
        ckpt = tmp_path / "sweep.jsonl"
        assert main(self.ARGS + ["--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(self.ARGS + ["--checkpoint", str(ckpt), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 reused" in out

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["sweep", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_failed_cell_sets_exit_code(self, tmp_path, capsys):
        assert main(
            [
                "sweep", "--apps", "no-such-app", "--mechanisms", "none",
                "--jobs", "0", "--scale", "0.05",
            ]
        ) == 3
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "1 failed" in out


class TestRegistryCompleteness:
    def test_every_eval_figure_present(self):
        expected = {
            "fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11",
            "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
            "fig22", "fig23", "fig24", "fig25", "table3",
        }
        assert expected == set(EXPERIMENTS)
