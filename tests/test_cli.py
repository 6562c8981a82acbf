import numpy as np
import pytest

from certitrack.cli import main
from certitrack.polysys import system_to_json
from certitrack.start_systems import random_system_on_sphere


@pytest.fixture
def quad_system(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(system_to_json(random_system_on_sphere((2, 2), np.random.default_rng(40))))
    return path


class TestTrackPath:
    @pytest.mark.parametrize("index", ["-1", "4"])
    def test_rejects_index_outside_the_start_roots(self, quad_system, tmp_path, capsys, index):
        # a (2,2) system has 4 total-degree start roots, indices 0..3
        out = tmp_path / "trace.csv"
        with pytest.raises(SystemExit) as exc:
            main(["track", str(quad_system), "--path", index, "--out", str(out)])
        assert exc.value.code == 2
        assert "--path must lie in [0, 4)" in capsys.readouterr().err
        assert not out.exists()

    def test_tracks_the_last_root(self, quad_system, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["track", str(quad_system), "--path", "3", "--out", str(out)]) == 0
        assert out.read_text().startswith("step,s,t,phi,chi1,chi2,accepted")
