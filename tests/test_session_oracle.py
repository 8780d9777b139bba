"""The engine's search generator against the state machine it replaced.

``AutoTuningEngine._search`` (run step-wise by the one ``TuningSession``)
must reproduce the hand-written session it replaced, kept in
``tests/session_oracle.py``, trial for trial.  Identical engines are driven
through both with their own measurers, and the results' wire forms must be
equal, over a grid of both engine tuners, both algorithms, every
``initial_random`` / ``patience`` value below, and batch sizes that do (8)
and do not (5) divide the budget of 24.  The grid's engines use a small
explorer and cost model, which keeps it fast and changes no loop logic; two
more cases drive engines built by ``TuningRequest.make_engine`` at their
default sizes.
"""

import itertools

import pytest

from repro.conv import ConvParams
from repro.core.autotune import AutoTuningEngine, CostModel, ExplorerConfig, TVMStyleTuner
from repro.gpusim import V100
from repro.service import TuningRequest, result_to_wire
from tests.session_oracle import OracleSession

SMALL = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)
BUDGET = 24

#: (tuner, pruned) x algorithm x initial_random x patience; the batch size
#: alternates between 5 and 8 so that each (tuner, algorithm,
#: initial_random) triple runs both.
GRID = [
    (tuner, pruned, algorithm, initial_random, patience, (5, 8)[(i + j) % 2])
    for (tuner, pruned), algorithm, (i, initial_random), (j, patience) in itertools.product(
        (("ate", True), ("tvm_style", False)),
        ("direct", "winograd"),
        enumerate((0, 3, 16)),
        enumerate((1, 2, 6)),
    )
]


def _drive(session, engine):
    while True:
        batch = session.propose()
        if not batch:
            break
        session.update(batch, engine.measurer.measure_batch(batch))
    assert session.finished
    return session.result


def _assert_same_run(make_engine, initial_random):
    oracle_engine = make_engine()
    expected = _drive(OracleSession(oracle_engine, initial_random), oracle_engine)
    engine = make_engine()
    result = _drive(engine.session(), engine)
    assert result_to_wire(result) == result_to_wire(expected)
    assert engine.measurer.num_measurements == oracle_engine.measurer.num_measurements


@pytest.mark.parametrize(
    "tuner, pruned, algorithm, initial_random, patience, batch_size", GRID
)
def test_search_generator_matches_the_oracle(
    tuner, pruned, algorithm, initial_random, patience, batch_size
):
    cls = AutoTuningEngine if tuner == "ate" else TVMStyleTuner

    def make_engine():
        return cls(
            SMALL,
            V100,
            algorithm,
            batch_size=batch_size,
            max_measurements=BUDGET,
            patience=patience,
            seed=5,
            explorer_config=ExplorerConfig(num_walkers=4, walk_length=6),
            pruned=pruned,
            cost_model=CostModel(n_estimators=12, seed=5),
            initial_random=initial_random,
        )

    _assert_same_run(make_engine, initial_random)


@pytest.mark.parametrize("tuner, pruned", [("ate", True), ("tvm_style", False)])
def test_request_engines_match_the_oracle(tuner, pruned):
    request = TuningRequest(
        SMALL, V100, max_measurements=BUDGET, batch_size=5, seed=5,
        pruned=pruned, tuner=tuner,
    )
    _assert_same_run(request.make_engine, request.initial_random)

