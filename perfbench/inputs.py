"""Seeded input generator for the four benchmark workloads.

Every input is a pure function of ``(workload, seed, index)``: the same
seed always yields the same configs and argument lists, whichever machine
or process generates them.  Inputs are plain data (dicts and argv lists);
:func:`materialize` writes config files into a scratch directory, which is
all the program under test ever sees.

An *invocation* is one CLI command line plus what the checker needs to
judge its output.  A *batch* is the unit the run loop executes whole:
``report-configs`` batches hold a fixed mix of valid and invalid configs so
the share of invalid inputs is the same in every batch; the other
workloads have one invocation per batch.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("report-configs", "grid-sweep", "chain-verify", "mc-crosscheck")

GRID_STEPS = 101
VERIFY_TRIALS = 100_000
MC_SAMPLES = 1_000_000

# report-configs batch composition: valid EPR and channel configs, then one
# config of each invalid kind.  Each invalid config also goes through ``mc``.
EPR_PER_BATCH = 10
EPR_ANTI_SQUEEZED_PER_BATCH = 3
CHANNEL_PER_BATCH = 6

# Invalid kinds and the exit codes the CLI documents for them.  NaN inputs
# may be reported either as a config error (1) or a validity error (2).
INVALID_KINDS = {
    "sub_bound_noise": (2,),
    "non_unity_gain": (2,),
    "unknown_key": (1,),
    "malformed_json": (1,),
    "epr_s_zero": (1,),
    "nan_epr": (1, 2),
}

# NaN channel inputs that the CLI does not yet reject (ROADMAP item 3): a
# NaN gain passes validation, and a NaN noise variance ends in a traceback.
# A timed workload must be one on which no operation fails, so these are
# not part of any batch; ``defect_probe`` runs them, checked the same way,
# once per report-configs run and outside the measuring window.
KNOWN_DEFECT_KINDS = {
    "nan_gain": (1, 2),
    "nan_noise": (1, 2),
}


@dataclass
class Invocation:
    """One CLI command: ``argv`` after ``cvteleport``, and what to expect.

    ``kind`` selects the checker (report, mc, sweep, verify or invalid).
    ``config`` is the config as data (``None`` for malformed text) and
    ``config_text`` the exact file contents; ``config_arg`` marks where the
    config path goes in ``argv``.  ``units`` is the work an accepted
    invocation completes, in the workload's throughput unit.
    """

    label: str
    kind: str
    argv: list[str]
    units: int
    config: dict | None = None
    config_text: str | None = None
    expect_exit: tuple[int, ...] = (0,)
    params: dict = field(default_factory=dict)


CONFIG_ARG = "{config}"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _cov(a: float, b: float) -> dict:
    return {"cov": [[a, 0.0], [0.0, b]]}


def _noise_pair(rng: random.Random, product_lo: float, product_hi: float):
    """Two variances whose product lies in [product_lo, product_hi]."""
    a = _log_uniform(rng, 0.3, 5.0)
    return a, _log_uniform(rng, product_lo, product_hi) / a


def epr_config(rng: random.Random, anti_squeezed: bool) -> dict:
    s = rng.uniform(1.05, 3.0) if anti_squeezed else rng.uniform(0.05, 1.0)
    return {"type": "epr", "eta": rng.uniform(0.05, 1.0), "s": s}


def channel_config(rng: random.Random) -> dict:
    """A valid unity-gain channel: gains +-1, correlated stages, any input."""
    g_x, g_y = rng.choice((1.0, -1.0)), rng.choice((1.0, -1.0))
    b_x, b_y = _noise_pair(rng, 1.0, 4.0)
    c_x, c_y = _noise_pair(rng, 1.0, 4.0)
    rho_x, rho_y = rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95)
    config = {
        "type": "channel",
        "measurement": {"g_X": g_x, "g_Y": g_y, "noise_B": _cov(b_x, b_y)},
        "reconstruction": {"h_X": g_x, "h_Y": g_y, "noise_C": _cov(c_x, c_y)},
        "cross_cov_BC": [
            [rho_x * math.sqrt(b_x * c_x), 0.0],
            [0.0, rho_y * math.sqrt(b_y * c_y)],
        ],
    }
    shape = rng.choice(("vacuum", "squeezed", "thermal"))
    if shape == "squeezed":
        r = _log_uniform(rng, 0.2, 5.0)
        var_x, var_y = r, 1.0 / r
    elif shape == "thermal":
        var_x, var_y = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
    if shape != "vacuum":
        config["input"] = {
            "var_X": var_x,
            "var_Y": var_y,
            "mean_x": rng.uniform(-2.0, 2.0),
            "mean_y": rng.uniform(-2.0, 2.0),
        }
    return config


def invalid_config(rng: random.Random, kind: str) -> tuple[dict | None, str]:
    """An invalid config of the given kind, as data and as file text."""
    if kind == "malformed_json":
        text = json.dumps(epr_config(rng, anti_squeezed=False))
        return None, text[: rng.randint(5, len(text) - 2)]
    if kind in ("unknown_key", "epr_s_zero", "nan_epr"):
        config = epr_config(rng, anti_squeezed=False)
        if kind == "unknown_key":
            config["squeezing"] = rng.uniform(0.0, 10.0)
        elif kind == "epr_s_zero":
            config["s"] = 0.0
        else:
            config["s"] = math.nan
        return config, json.dumps(config)
    config = channel_config(rng)
    if kind == "sub_bound_noise":
        b_x, b_y = _noise_pair(rng, 0.2, 0.8)
        config["measurement"]["noise_B"] = _cov(b_x, b_y)
        config["cross_cov_BC"] = [[0.0, 0.0], [0.0, 0.0]]
    elif kind == "non_unity_gain":
        config["reconstruction"]["h_X"] *= rng.uniform(1.1, 2.0)
    elif kind == "nan_gain":
        config["measurement"]["g_X"] = math.nan
    elif kind == "nan_noise":
        config["measurement"]["noise_B"]["cov"][0][0] = math.nan
    else:
        raise ValueError(f"unknown invalid kind {kind!r}")
    return config, json.dumps(config)


def _config_invocation(label, kind, command, config, text, units, expect, extra=()):
    return Invocation(
        label=label,
        kind=kind,
        argv=[command, "--config", CONFIG_ARG, *extra],
        units=units,
        config=config,
        config_text=text,
        expect_exit=expect,
    )


def report_batch(seed: int, index: int) -> list[Invocation]:
    rng = _rng("report-configs", seed, index)
    out = []
    for i in range(EPR_PER_BATCH):
        config = epr_config(rng, anti_squeezed=i < EPR_ANTI_SQUEEZED_PER_BATCH)
        out.append(
            _config_invocation(
                f"b{index}-epr{i}", "report", "report", config, json.dumps(config), 1, (0,)
            )
        )
    for i in range(CHANNEL_PER_BATCH):
        config = channel_config(rng)
        out.append(
            _config_invocation(
                f"b{index}-channel{i}", "report", "report", config, json.dumps(config), 1, (0,)
            )
        )
    for kind, codes in INVALID_KINDS.items():
        config, text = invalid_config(rng, kind)
        for command in ("report", "mc"):
            # The config counts as one unit of work; its mc run adds none.
            units = 1 if command == "report" else 0
            out.append(
                _config_invocation(
                    f"b{index}-{kind}-{command}", "invalid", command, config, text, units, codes
                )
            )
    return out


def defect_probe(seed: int) -> list[Invocation]:
    """``report`` and ``mc`` on one config of each known-defect kind."""
    rng = _rng("defect-probe", seed, 0)
    out = []
    for kind, codes in KNOWN_DEFECT_KINDS.items():
        config, text = invalid_config(rng, kind)
        for command in ("report", "mc"):
            out.append(
                _config_invocation(f"probe-{kind}-{command}", "invalid", command, config, text, 0, codes)
            )
    return out


def sweep_invocation(seed: int, index: int) -> Invocation:
    """A 101x101 grid with an s = 0 column and anti-squeezed (s > 1) points."""
    rng = _rng("grid-sweep", seed, index)
    params = {
        "eta_min": rng.uniform(0.0, 0.3),
        "eta_max": rng.uniform(0.7, 1.0),
        "eta_steps": GRID_STEPS,
        "s_min": 0.0,
        "s_max": rng.uniform(1.2, 3.0),
        "s_steps": GRID_STEPS,
    }
    argv = ["sweep"]
    for key, value in params.items():
        argv += ["--" + key.replace("_", "-"), repr(value)]
    return Invocation(
        label=f"sweep{index}",
        kind="sweep",
        argv=argv,
        units=GRID_STEPS * GRID_STEPS,
        params=params,
    )


def verify_invocation(seed: int, index: int) -> Invocation:
    rng = _rng("chain-verify", seed, index)
    params = {"trials": VERIFY_TRIALS, "seed": rng.randrange(2**31)}
    return Invocation(
        label=f"verify{index}",
        kind="verify",
        argv=["verify", "--trials", str(params["trials"]), "--seed", str(params["seed"])],
        units=VERIFY_TRIALS,
        params=params,
    )


def mc_invocation(seed: int, index: int) -> Invocation:
    """``mc`` on a valid config: EPR and explicit channels alternate."""
    rng = _rng("mc-crosscheck", seed, index)
    if index % 2 == 0:
        config = epr_config(rng, anti_squeezed=rng.random() < 0.3)
    else:
        config = channel_config(rng)
    params = {"samples": MC_SAMPLES, "seed": rng.randrange(2**31)}
    inv = _config_invocation(
        f"mc{index}",
        "mc",
        "mc",
        config,
        json.dumps(config),
        MC_SAMPLES,
        (0,),
        extra=("--samples", str(params["samples"]), "--seed", str(params["seed"])),
    )
    inv.params = params
    return inv


def batch(workload: str, seed: int, index: int) -> list[Invocation]:
    """The ``index``-th batch of a workload, a pure function of the seed."""
    if workload == "report-configs":
        return report_batch(seed, index)
    if workload == "grid-sweep":
        return [sweep_invocation(seed, index)]
    if workload == "chain-verify":
        return [verify_invocation(seed, index)]
    if workload == "mc-crosscheck":
        return [mc_invocation(seed, index)]
    raise ValueError(f"unknown workload {workload!r}")


def materialize(inv: Invocation, directory) -> list[str]:
    """Write the invocation's config file (if any) and return its argv."""
    if inv.config_text is None:
        return list(inv.argv)
    path = directory / f"{inv.label}.json"
    path.write_text(inv.config_text, encoding="utf-8")
    return [str(path) if a == CONFIG_ARG else a for a in inv.argv]


def input_size(inv: Invocation) -> dict:
    """The size facts recorded per invocation in result files."""
    size = {"label": inv.label, "kind": inv.kind, "units": inv.units}
    if inv.config_text is not None:
        size["config_bytes"] = len(inv.config_text.encode("utf-8"))
    size.update(inv.params)
    return size
