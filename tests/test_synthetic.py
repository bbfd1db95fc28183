"""The generators' Ratings against ``oracle.as_ratings`` of their list references."""

import numpy as np
import pytest

import oracle
from recbench.dataset import Ratings
from recbench.synthetic import gen_clustered, gen_planted_rank1, gen_uniform, write_csv

CASES = {
    "uniform": (gen_uniform, oracle.uniform_logs, (40, 25, 0.4, 3)),
    # u100000 sorts before u10001: table order is not generation order
    "uniform-100005-users": (gen_uniform, oracle.uniform_logs, (100_005, 1, 0.5, 5)),
    "uniform-empty": (gen_uniform, oracle.uniform_logs, (8, 6, 0.0, 1)),
    "planted-rank1": (gen_planted_rank1, oracle.planted_rank1_logs, (50, 30, 0.5, 11)),
    "clustered": (gen_clustered, oracle.clustered_logs, (60, 16, 2, 0.7, 6)),
    "clustered-reference": (gen_clustered, oracle.clustered_logs, (1500, 500, 5, 0.05, 1)),
}


@pytest.mark.parametrize("generate, reference, args", CASES.values(), ids=CASES.keys())
def test_equals_the_list_reference(generate, reference, args, tmp_path):
    got = generate(*args)
    logs = reference(*args)
    want = oracle.as_ratings(logs)
    assert isinstance(got, Ratings)
    assert (got.user_ids, got.item_ids) == (want.user_ids, want.item_ids)
    for a, b in zip((got.users, got.items, got.ratings), (want.users, want.items, want.ratings)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert list(got) == logs
    write_csv(got, tmp_path / "got.csv")
    write_csv(logs, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
