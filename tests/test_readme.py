"""The README's library quick start runs as written, and its comments hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    kt, K, B, F = scope["kt"], scope["K"], scope["B"], scope["F"]
    assert kt.subinvariance_check(K, B, F).psd
    assert scope["est"].bound_label == "certified"
    assert kt.martingale_checks(scope["batch"], scope["tower"]).passed
    assert abs(scope["bg"].residual) <= 1e-12
    assert scope["bg"].nu_shift(scope["bg_alt"]) == 0.0
