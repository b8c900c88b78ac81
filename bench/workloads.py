"""The benchmark's workloads: one kgeo command each, with its config.

Every run writes the workload's config to a JSON file and calls
``kgeo <command> --config <file> --out <dir>``, so the program receives only
the generated config. All inputs are derived from the benchmark seed: the
program's base seed is ``1 + stride * seed``, with the stride equal to the
number of seeded planes a run consumes, so neighbouring benchmark seeds
never share a plane. Benchmark seed 0 gives the CLI default seed 1.

Every parameter the correctness checks depend on is written out
explicitly, so a change of the CLI defaults cannot change the inputs.
"""

_N2 = {"n": 2, "grid": 16, "amp_phi": 0.004, "amp_psi": 0.02}

WORKLOADS = {
    # 32 cold Green solves over 8 planes (8 of them repeated by
    # dirichlet_bound); the solver dominates, potential assembly is ~3%.
    "curvature-n2": {
        "command": "curvature",
        "config": dict(_N2, planes=8,
                       kinds=["Dirichlet", "Mabuchi", "Calabi"]),
        "stride": 8,
    },
    # 10 RK4 steps: 40 warm-started solves, 5 potential builds per step,
    # then residual, energy and length re-build potentials behind the
    # 8-entry Curve memo; the largest resident set.
    "geodesic-n2": {
        "command": "geodesic",
        "config": dict(_N2, T=0.05, dt=0.005, store_every=1, halvings=0),
        "stride": 1,
    },
    # 20 flow steps; the 12-node energy quadrature is ~2/3 of the time and
    # the warm Green solves are few.
    "flow-n2": {
        "command": "flow",
        "config": dict(_N2, T=0.01, flow_dt=0.0005, nu_steps=12, store_every=1),
        "stride": 1,
    },
    # Many small transforms: per-call overhead dominates and green_solve
    # returns early on the roundoff-level dimension-one source. N=32, not
    # 64: the roundoff source crosses green_solve's 1e-12 floor on rare
    # seeds, and far more rarely at N=32 (README.md, "Workloads").
    "curvature-n1": {
        "command": "curvature",
        "config": {"n": 1, "grid": 32, "amp_phi": 0.004, "amp_psi": 0.02,
                   "planes": 250, "kinds": ["Dirichlet", "Mabuchi", "Calabi"]},
        "stride": 250,
    },
}


def run_config(name, seed):
    """The full config of one run of workload `name` at benchmark seed `seed`."""
    spec = WORKLOADS[name]
    cfg = dict(spec["config"])
    cfg["seed"] = 1 + spec["stride"] * seed
    return cfg
