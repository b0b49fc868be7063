import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPORT_DIFF = ROOT / "tools" / "report_diff.py"


def load_report_diff():
    spec = importlib.util.spec_from_file_location("report_diff", REPORT_DIFF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestReportDiff:
    def test_same_tree_has_no_difference(self):
        proc = subprocess.run(
            [sys.executable, str(REPORT_DIFF), str(ROOT), str(ROOT), "--command",
             "proximality --catalog margulis_positive_n1 --ball 2 --samples 300"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.strip().endswith(": 0 difference(s)")

    def test_paths_outside_timing(self):
        tool = load_report_diff()
        parent = {"timing": {"s": 1.0}, "proximality": {"certs": [
            {"separation": 1.0, "passed": True}, {"separation": 0.5}]}}
        change = {"timing": {"s": 2.0}, "proximality": {"certs": [
            {"separation": 1.0, "passed": 1}, {"separation": 0.5000001}]},
            "extra": None}
        assert tool.report_differences(parent, change) == [
            ("extra", "<missing>", None),
            ("proximality.certs[0].passed", True, 1),
            ("proximality.certs[1].separation", 0.5, 0.5000001),
        ]
        assert tool.report_differences(parent, parent) == []
