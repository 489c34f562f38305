import json

import compare


def _report(hashes, artifact_dir="a"):
    return {"workload": "w", "seed": 1, "artifact_dir": artifact_dir,
            "tasks": [{"index": 1, "pass": "plain", "label": "t", "output_dir": "out0001",
                       "artifacts": hashes}]}


def test_identical_hashes_are_byte_identical():
    identical, lines = compare.compare(_report({"a.csv": "x"}), _report({"a.csv": "x"}))
    assert identical and lines[-1].startswith("byte-identical")


def test_reports_of_two_checkouts_give_the_largest_difference(tmp_path, capsys):
    paths = []
    for checkout, value in (("a", "1.0e+00,2.5"), ("b", "1.0e+00,2.0")):
        work = tmp_path / checkout / ".perfbench_work"
        out = work / "artifacts" / "w-seed1-trace0" / "plain" / "out0001"
        out.mkdir(parents=True)
        (out / "x.csv").write_text(f"k,v\n{value}\n")
        (work / "reports").mkdir()
        paths.append(work / "reports" / "w-seed1-trace0.json")
        paths[-1].write_text(json.dumps(
            _report({"x.csv": checkout}, "../artifacts/w-seed1-trace0")))
    assert compare.main([str(p) for p in paths]) == 1
    assert "max abs diff 5.000e-01, max rel diff 2.000e-01" in capsys.readouterr().out
