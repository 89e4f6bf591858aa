"""README's examples run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    [block] = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(block, f"{README}:quick start", "exec"), {})
    # the test MSE, the test MAE, the grad norm and the forecasts' MSE
    mse, mae, grad_norm, forecast_mse = map(float, capsys.readouterr().out.split())
    assert mse == pytest.approx(forecast_mse, rel=1e-12) and mae > 0.0 and grad_norm >= 0.0
