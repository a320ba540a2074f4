import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["chsh_summary", "reproduce_figures"])
@pytest.mark.parametrize("seed", ["-1", str(2**64), "x"])
def test_bad_seed_is_a_usage_error(name, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        load(name).main(["--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed" in captured.err
