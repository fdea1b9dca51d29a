"""The ``python -m repro.analysis`` CLI: every finding fails the run
(there is no baseline file), and findings keep a line-free identity."""

import json

import pytest

from repro.analysis.findings import Finding
from repro.analysis.runner import main


def finding(rule="DET01", path="src/repro/x.py", message="m", line=3):
    return Finding(rule=rule, path=path, line=line, message=message)


# -- finding identity ---------------------------------------------------------


def test_fingerprint_ignores_line_numbers():
    # Shifting code may not change a finding's identity...
    assert finding(line=3).fingerprint() == finding(line=99).fingerprint()
    # ...but a changed message (or path, or rule) is a new finding.
    assert (
        finding(message="a").fingerprint() != finding(message="b").fingerprint()
    )


# -- CLI behaviour ------------------------------------------------------------


def write_violation(tmp_path):
    target = tmp_path / "src" / "repro" / "net" / "example.py"
    target.parent.mkdir(parents=True)
    target.write_text("import time\n\nx = time.time()\n", encoding="utf-8")


def test_cli_fails_on_new_findings(tmp_path, capsys):
    write_violation(tmp_path)
    code = main(["--root", str(tmp_path), "src"])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET01" in out
    assert "1 finding(s)" in out


def test_cli_no_baseline_ignores_the_file(tmp_path, capsys):
    """A leftover ``analysis-baseline.json`` that lists the finding
    accepts nothing: the finding still fails the run."""
    write_violation(tmp_path)
    (tmp_path / "analysis-baseline.json").write_text(
        json.dumps({"findings": [
            {"fingerprint": f.fingerprint(), "rule": f.rule, "path": f.path}
            for f in (finding(path="src/repro/net/example.py"),)
        ]}),
        encoding="utf-8",
    )
    assert main(["--root", str(tmp_path), "src"]) == 1
    assert "DET01" in capsys.readouterr().out


def test_cli_json_output(tmp_path, capsys):
    write_violation(tmp_path)
    code = main(["--root", str(tmp_path), "--json", "src"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [f["rule"] for f in payload["findings"]] == ["DET01"]
    assert payload["findings"][0]["line"] == 3


def test_cli_rule_filter(tmp_path, capsys):
    write_violation(tmp_path)
    assert main(["--root", str(tmp_path), "--rule", "BND01", "src"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_accepts_absolute_paths_under_the_root(tmp_path, capsys):
    write_violation(tmp_path)
    target = tmp_path / "src" / "repro" / "net"
    code = main(["--root", str(tmp_path), str(target)])
    out = capsys.readouterr().out
    assert code == 1
    assert "src/repro/net/example.py" in out


def test_cli_refuses_absolute_paths_outside_the_root(tmp_path, capsys):
    write_violation(tmp_path)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    with pytest.raises(SystemExit) as excinfo:
        main(["--root", str(elsewhere), str(tmp_path / "src")])
    assert excinfo.value.code == 2
    assert "outside the analysis root" in capsys.readouterr().err
