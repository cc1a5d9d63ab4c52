"""Byte pins of every report writer: the JSON of each report and the CSV
files of the solve, chaos and Nash studies, built by hand from the value
types the studies make, so that a change of how values are turned into
text shows as a change of these literals."""

import json
from types import SimpleNamespace

import numpy as np

from mfglab.fbsde import optimal_cost
from mfglab.fixedpoint import (EquilibriumReport, FixedPointConfig,
                               HistoryRow, write_history_csv)
from mfglab.model import builtin_game
from mfglab.nagent import (ChaosReport, Deviation, MODE_COMPETITIVE,
                           NashGapReport, chaos_to_csv, eps_chaos_sq,
                           nash_gap, nash_to_csv)
from mfglab.validation import CheckResult, ValidationReport

from conftest import cached_equilibrium

THIRD = 1.0 / 3.0  # needs all 17 significant digits


def _estimate(*values):
    """A (mean, se) pair of the type the studies make from per-path costs."""
    return optimal_cost(SimpleNamespace(costs=np.array(values)))


def _equilibrium_report():
    rows = [
        HistoryRow(iteration=1, delta=np.float64(0.1), theta=0.5,
                   deltas=(np.float64(0.1), np.float64(1e-300)),
                   costs=(THIRD, -0.0), picard_iterations=(3, 1),
                   picard_dampings=([0.5, np.float64(THIRD)], [])),
        HistoryRow(iteration=2, delta=np.float64(1e-300), theta=THIRD,
                   deltas=(np.float64(-0.0), np.float64(1e-300)),
                   costs=(0.1, 2.5), picard_iterations=(2, 4),
                   picard_dampings=([1.0], [0.5, 0.25, np.float64(0.1)]),
                   contraction=np.float64(0.1)),
    ]
    return EquilibriumReport(
        spec_name="pin", flows=[], input_flows=[], solutions=[], iterations=2,
        history=rows, costs=[_estimate(0.1, THIRD), _estimate(-0.0, 1e-300)],
        converged=True, config=FixedPointConfig(), seed=7,
        delta_ratio=THIRD, truncation_level=0.5,
        truncation_binding=[{"0": 512, "3": 1024}, {}])


def _chaos_report():
    sizes = (16, 32, 64)
    return ChaosReport(
        spec_name="pin", N_list=sizes, repetitions=4, reference_n=1024,
        estimates=[np.array([0.1, THIRD, 1e-300])],
        standard_errors=[np.array([-0.0, 0.1, THIRD])],
        knot_curves=[np.ones((3, 2))], slopes=[-0.5], r_squared=[THIRD],
        eps_sq_theory=[[eps_chaos_sq(n, 1) for n in sizes]],
        bias_check=[np.array([THIRD, 0.1, 2.0])], seed=3)


def _nash_report():
    devs = ("shift:+0.1", "null")
    return NashGapReport(
        spec_name="pin", mode=MODE_COMPETITIVE, population=0, N_list=(8, 16),
        deviation_ids=devs, repetitions=2, open_loop=False,
        gains={(8, devs[0]): 0.1, (8, devs[1]): -0.0,
               (16, devs[0]): THIRD, (16, devs[1]): 0.0},
        gain_ses={(8, devs[0]): 1e-300, (8, devs[1]): 0.0,
                  (16, devs[0]): 0.1, (16, devs[1]): 0.0},
        eps_bar_sum={8: 0.5, 16: THIRD},
        normalized={(8, devs[0]): 0.2, (8, devs[1]): -0.0,
                    (16, devs[0]): 1.0, (16, devs[1]): 0.0},
        kappa_by_N={8: 0.0, 16: 0.1}, kappa_floor_by_N={8: 1e-300, 16: 0.3},
        baseline_costs={8: [_estimate(0.1, THIRD)],
                        16: [_estimate(1.0, 2.0, 4.0)]},
        meanfield_costs=[_estimate(-0.0, 1e-300)], seed=11)


def _validation_report():
    return ValidationReport(
        spec_name="pin",
        checks=[CheckResult("gradient", 0, True, 1e-300, 0.1),
                CheckResult("growth", None, False, THIRD, -0.0, "at x=1")],
        notes=["no LQ block"])


def _json(report):
    """The report.json text, as the command line writes it."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


EQUILIBRIUM_JSON = """\
{
  "converged": true,
  "costs": [
    {
      "mean": 0.21666666666666667,
      "se": 0.11666666666666665
    },
    {
      "mean": 5e-301,
      "se": 0.0
    }
  ],
  "delta_ratio": 0.3333333333333333,
  "fp_tol": 0.001,
  "history": [
    {
      "contraction": null,
      "costs": [
        0.3333333333333333,
        -0.0
      ],
      "delta": 0.1,
      "deltas": [
        0.1,
        1e-300
      ],
      "iteration": 1,
      "picard_dampings": [
        [
          0.5,
          0.3333333333333333
        ],
        []
      ],
      "picard_iterations": [
        3,
        1
      ],
      "theta": 0.5
    },
    {
      "contraction": 0.1,
      "costs": [
        0.1,
        2.5
      ],
      "delta": 1e-300,
      "deltas": [
        -0.0,
        1e-300
      ],
      "iteration": 2,
      "picard_dampings": [
        [
          1.0
        ],
        [
          0.5,
          0.25,
          0.1
        ]
      ],
      "picard_iterations": [
        2,
        4
      ],
      "theta": 0.3333333333333333
    }
  ],
  "initialization": "uncontrolled dynamics at the anchor control",
  "iterations": 2,
  "n_paths": 4096,
  "n_steps": 50,
  "seed": 7,
  "spec_name": "pin",
  "theta0": 0.5,
  "truncation_binding": [
    {
      "0": 512,
      "3": 1024
    },
    {}
  ],
  "truncation_level": 0.5
}
"""

CHAOS_JSON = """\
{
  "N_list": [
    16,
    32,
    64
  ],
  "bias_check": [
    [
      0.3333333333333333,
      0.1,
      2.0
    ]
  ],
  "eps_sq_theory": [
    [
      0.25,
      0.1767766952966369,
      0.125
    ]
  ],
  "estimates": [
    [
      0.1,
      0.3333333333333333,
      1e-300
    ]
  ],
  "r_squared": [
    0.3333333333333333
  ],
  "reference_n": 1024,
  "repetitions": 4,
  "seed": 3,
  "slopes": [
    -0.5
  ],
  "spec_name": "pin",
  "standard_errors": [
    [
      -0.0,
      0.1,
      0.3333333333333333
    ]
  ]
}
"""

NASH_JSON = """\
{
  "N_list": [
    8,
    16
  ],
  "baseline_costs": {
    "16": [
      {
        "mean": 2.3333333333333335,
        "se": 0.8819171036881969
      }
    ],
    "8": [
      {
        "mean": 0.21666666666666667,
        "se": 0.11666666666666665
      }
    ]
  },
  "deviations": [
    "shift:+0.1",
    "null"
  ],
  "eps_bar_sum": {
    "16": 0.3333333333333333,
    "8": 0.5
  },
  "gain_ses": {
    "16:null": 0.0,
    "16:shift:+0.1": 0.1,
    "8:null": 0.0,
    "8:shift:+0.1": 1e-300
  },
  "gains": {
    "16:null": 0.0,
    "16:shift:+0.1": 0.3333333333333333,
    "8:null": -0.0,
    "8:shift:+0.1": 0.1
  },
  "kappa_by_N": {
    "16": 0.1,
    "8": 0.0
  },
  "kappa_floor_by_N": {
    "16": 0.3,
    "8": 1e-300
  },
  "meanfield_costs": [
    {
      "mean": 5e-301,
      "se": 0.0
    }
  ],
  "mode": "competitive-agent",
  "normalized": {
    "16:null": 0.0,
    "16:shift:+0.1": 1.0,
    "8:null": -0.0,
    "8:shift:+0.1": 0.2
  },
  "open_loop": false,
  "population": 0,
  "repetitions": 2,
  "seed": 11,
  "spec_name": "pin"
}
"""

VALIDATION_JSON = """\
{
  "checks": [
    {
      "detail": "",
      "name": "gradient",
      "passed": true,
      "population": 0,
      "tolerance": 0.1,
      "worst": 1e-300
    },
    {
      "detail": "at x=1",
      "name": "growth",
      "passed": false,
      "population": null,
      "tolerance": -0.0,
      "worst": 0.3333333333333333
    }
  ],
  "notes": [
    "no LQ block"
  ],
  "passed": false,
  "spec_name": "pin"
}
"""

HISTORY_CSV = """\
iteration,delta,theta,delta_pop0,cost_pop0,picard_pop0,delta_pop1,cost_pop1,picard_pop1
1,0.10000000000000001,0.5,0.10000000000000001,0.33333333333333331,3,1e-300,-0,1
2,1e-300,0.33333333333333331,-0,0.10000000000000001,2,1e-300,2.5,4
"""

CHAOS_CSV = """\
population,N,estimate,se,eps_sq_theory,bias_check
0,16,0.10000000000000001,-0,0.25,0.33333333333333331
0,32,0.33333333333333331,0.10000000000000001,0.17677669529663689,0.10000000000000001
0,64,1e-300,0.33333333333333331,0.125,2
"""

NASH_CSV = """\
mode,N,deviation,estimate,se,normalized
competitive-agent,8,shift:+0.1,0.10000000000000001,1e-300,0.20000000000000001
competitive-agent,8,null,-0,0,-0
competitive-agent,16,shift:+0.1,0.33333333333333331,0.10000000000000001,1
competitive-agent,16,null,0,0,0
"""


def test_report_json_is_pinned():
    assert _json(_equilibrium_report()) == EQUILIBRIUM_JSON
    assert _json(_chaos_report()) == CHAOS_JSON
    assert _json(_nash_report()) == NASH_JSON
    assert _json(_validation_report()) == VALIDATION_JSON


def test_report_csv_is_pinned(tmp_path):
    for write, report, text in [
            (write_history_csv, _equilibrium_report(), HISTORY_CSV),
            (chaos_to_csv, _chaos_report(), CHAOS_CSV),
            (nash_to_csv, _nash_report(), NASH_CSV)]:
        path = tmp_path / "out.csv"
        write(report, str(path))
        assert path.read_bytes() == text.encode()


def test_optimal_cost_bits_are_pinned():
    costs = np.random.default_rng(5).standard_normal(4096)
    assert [float(v).hex() for v in _estimate(*costs[:2])] == [
        '-0x1.102a48d5be049p+0', '0x1.0b7ba062937d3p-2']
    assert [float(v).hex() for v in _estimate(*costs)] == [
        '0x1.ebfeefce0eb31p-6', '0x1.ff2a818ce0784p-7']


def test_one_repetition_nash_gain_has_zero_se():
    spec = builtin_game("lq-1pop")
    eq = cached_equilibrium("lq-1pop", n_steps=10, n_paths=512)
    report = nash_gap(spec, eq, (8, 16, 32), repetitions=1,
                      deviations=(Deviation("shift", 0.25), Deviation("null")))
    assert set(report.gain_ses.values()) == {0.0}
    assert set(report.kappa_floor_by_N.values()) == {0.0}
