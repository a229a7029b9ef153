"""The generator protocol: matrix(t) for a scalar t or a 1-d array of times.

A stack evaluated in one call must be bitwise equal to the matrices
evaluated one time at a time, so that integrating from precomputed stage
matrices reproduces the per-time integration byte for byte.
"""

import numpy as np
import pytest

from epiqmap import cli, coupled, epidemic

RAMP = [[0.0, 0.1], [0.37, 0.45], [1.0, 0.2]]

# RK4-like stage times across and beyond the table range, as ode_evolve
# forms them: t_i, t_i + h/2, t_i + h
_STEPS = -0.2 + (1.5 / 90) * np.arange(90)
TIMES = np.concatenate((_STEPS, _STEPS + 0.5 * (1.5 / 90), _STEPS + 1.5 / 90))


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _epidemic_n_generator():
    config = {
        "schema": 1, "model": "epidemicN", "t0": 0.0, "t1": 1.0, "dt": 0.01,
        "generator": {"matrix": [[-0.3, RAMP, 0.1], [0.2, -0.25, RAMP], [RAMP, 0.05, -0.4]]},
        "initial_state": [0.2, 0.5, 0.3],
    }
    return cli.parse_scenario(config).source


def _forms():
    const = epidemic.Generator2(-0.2, 0.15, 0.25, -0.35)
    table = epidemic.Generator2(-0.2, RAMP, 0.25, [[0.0, -0.1], [1.0, -0.4]])
    return {
        "generator2_constant": const.matrix,
        "generator2_table": table.matrix,
        "traffic": coupled.build_traffic_generator(
            table, const, (RAMP, 0.1, 0.12, [[0.0, 0.05], [1.0, 0.2]])
        ).matrix,
        "symmetric": coupled.symmetric_traffic_generator(table, RAMP).matrix,
        "kron_sum": coupled.kron_sum_generator(table, const).matrix,
        "kron_sum_constant": coupled.kron_sum_generator(const, const).matrix,
        "interaction": coupled.interaction_generator(
            [-0.1, -0.2, -0.3, -0.4],
            {("1A1B", "1A2B"): RAMP, ("2A1B", "2A2B"): 0.15, ("1A1B", "2A2B"): 0.1},
            _rotation(0.4), _rotation(1.1),
        ).matrix,
        "interaction_constant": coupled.interaction_generator(
            [-0.1, -0.2, -0.3, -0.4], {("2A2B", "1A1B"): 0.2}, _rotation(0.4), _rotation(1.1),
        ).matrix,
        "epidemicN": _epidemic_n_generator(),
    }


FORMS = _forms()


@pytest.mark.parametrize("name", sorted(FORMS))
def test_stack_bitwise_equals_per_time(name):
    matrix = FORMS[name]
    stack = matrix(TIMES)
    per_time = np.stack([matrix(t) for t in TIMES])
    assert stack.shape == per_time.shape == (len(TIMES),) + per_time.shape[1:]
    assert np.ascontiguousarray(stack).tobytes() == per_time.tobytes()


@pytest.mark.parametrize("name", sorted(FORMS))
def test_scalar_forms_give_one_matrix(name):
    matrix = FORMS[name]
    reference = matrix(0.3)
    for t in (np.float64(0.3), np.array(0.3)):
        assert np.array_equal(matrix(t), reference)
    assert reference.shape == matrix(TIMES).shape[1:]


def test_constant_stack_is_broadcast_not_copied():
    gen = epidemic.Generator2(-0.2, 0.15, 0.25, -0.35)
    stack = gen.matrix(TIMES)
    assert stack.strides[0] == 0
    assert not stack.flags.writeable


def test_non_finite_entries_raise():
    # a constant inf or nan entry, beside constant or table entries; the
    # message names the first offending time, not the whole array
    first = float(TIMES[0])
    for value in (np.inf, np.nan):
        for gen in (epidemic.Generator2(value, 0.0, 0.0, 0.0),
                    epidemic.Generator2(value, RAMP, 0.0, 0.0)):
            with pytest.raises(ValueError, match=r"^generator entries not finite at t = %r$" % first):
                gen.matrix(TIMES)
            with pytest.raises(ValueError, match=r"at t = 0\.7$"):
                gen.matrix(0.7)


def test_rejects_multidimensional_times():
    with pytest.raises(ValueError):
        FORMS["generator2_table"](TIMES.reshape(3, -1))
