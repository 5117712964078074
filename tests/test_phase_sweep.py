from tools.phase_sweep import main


def test_sweep_prints_one_row_per_workload(capsys):
    assert main(["--seeds", "1", "--reps", "1",
                 "--workloads", "sparse_uniform"]) == 0
    header, rule, row = capsys.readouterr().out.splitlines()
    assert header.strip("| ").split(" | ")[1:] == [
        "`c_B=1`", "2", "3", "4", "6", "8", "`6·⌈lg n⌉`", "`exact`"]
    cells = row.strip("| ").split(" | ")
    assert cells[0] == "`sparse_uniform`, n=2048"
    assert all(float(c.strip("*")) > 0 for c in cells[1:])
    # the fastest c_B is marked, the exact baseline never
    assert sum(c.startswith("**") for c in cells[1:-1]) == 1
