"""The repository lints itself clean — and stays able to fail.

The first test is the realistic acceptance check: running the full rule
set over ``src/repro`` must produce no visible findings.  The second
seeds a violation into a copy of a shipped module and asserts the run
fails, guarding against a rule set that goes green by checking nothing.
"""

import os
import shutil

from repro.lintkit import lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")


def test_src_repro_is_lint_clean():
    report = lint_paths([SRC])
    assert report.files_scanned > 50
    offenders = [f"{f.anchor()} {f.rule_id} {f.message}"
                 for f in report.visible]
    assert offenders == [], "\n".join(offenders)
    assert report.exit_code() == 0


def test_inline_suppressions_stay_rare_and_justified():
    # The desim engine's two telemetry wall-clock reads are the only
    # sanctioned suppressions; growth here needs a deliberate decision.
    report = lint_paths([SRC])
    assert report.suppressed_count <= 4


def test_seeded_violation_fails_the_run(tmp_path):
    victim = os.path.join(SRC, "qnet", "mmc.py")
    seeded = tmp_path / "mmc_seeded.py"
    shutil.copyfile(victim, seeded)
    with open(seeded, "a", encoding="utf-8") as fh:
        fh.write("\nimport random\n\n\ndef _jitter():\n"
                 "    return random.random()\n")
    report = lint_paths([str(seeded)])
    assert report.exit_code() == 1
    assert any(f.rule_id == "DET001" for f in report.visible)


def test_seeded_wall_clock_fails_the_run(tmp_path):
    seeded = tmp_path / "timed.py"
    seeded.write_text("import time\n\n\ndef solve():\n"
                      "    return time.time()\n", encoding="utf-8")
    report = lint_paths([str(seeded)])
    assert report.exit_code() == 1
    assert any(f.rule_id == "DET003" for f in report.visible)
