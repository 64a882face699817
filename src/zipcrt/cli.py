"""Command-line front end: sample sizes, sweeps, simulation, fitting, studies.

Designs are described by a JSON file with keys mirroring the design inputs::

    {
      "mu1": 1.0, "beta2": -0.431, "p1": 0.5, "q": 0.5,
      "rho_s": 0.05, "rho_u": 0.05, "r_bar": 0.5,
      "alpha": 0.05, "power": 0.8,
      "cluster_size": {"kind": "discrete_uniform", "lo": 34, "hi": 56}
    }

The control mean is ``mu1`` or its log ``beta1``; the intervention arm's
zero structure is ``q`` (preferred) or ``p2``; ``q`` defaults to 0.5 when
neither is given.  ``cluster_size`` takes exactly the keys of its kind:
``lo`` and ``hi`` (discrete_uniform), ``rate``, ``lo`` and ``hi``
(truncated_poisson), or ``m`` (fixed); ``lo``, ``hi`` and ``m`` are whole
numbers (``34`` or ``34.0``).  Individual keys can be overridden on
the command line with ``--set key=value`` (``--set cluster_size.lo=10``).

Every artifact-writing command also writes ``<out>.manifest.json``
recording the command, a digest of the fully-resolved configuration, the
seed, and the tool version; rerunning with the same inputs reproduces the
artifact byte for byte.  The ``study`` and ``tables`` manifests also record
the Monte Carlo engine's name and version, its study-chunk stream tag and
its chunk size, and the ``study`` manifest the seconds the study spent
drawing, fitting and testing (``StudyReport.seconds``), which no rerun
reproduces; a ``tables`` manifest of a table that ran studies records
their sums (``TableReport.seconds``).  The ``simulate`` and ``tables``
manifests record the dataset generator's name, version and stream tag in
the same way: a ``table3-icc`` ICC is a statistic of a generated dataset.
With the seed, these fix every simulated rate, ICC and dataset, so each
artifact can be traced to the code that drew it.

Exit codes: 0 success, 2 validation error, 3 runtime error (for example a
dataset whose mean model is undefined).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import secrets
import sys
from datetime import datetime, timezone
from typing import Optional

from . import __version__
from .dataset import read_dataset, write_dataset
from .design import ClusterSizeModel, DesignInputs, build_design, decompose_effect, pairwise_covariance_factor
from .errors import ConfigError, DomainError, StudyError, ZipCrtError
from .gee import DF_RULES, ESTIMATORS, _test_df, fit_zip, wald_test
from .mc import (
    CHUNK_REPLICATES,
    ENGINE,
    ENGINE_VERSION,
    STREAM_TAG,
    StudyConfig,
    reproduce_tables,
    run_power_study,
)
from .power import q_sweep, sample_size_normal, sample_size_t
from .simulate import GENERATOR, GENERATOR_VERSION, TRIAL_STREAM_TAG, generate_trial

_NUMBER_KEYS = (
    "mu1", "beta1", "beta2", "p1", "p2", "q", "rho_s", "rho_u", "r_bar", "alpha", "power",
)
_DESIGN_KEYS = {*_NUMBER_KEYS, "cluster_size"}
_CLUSTER_KIND_KEYS = {
    "discrete_uniform": ("lo", "hi"),
    "truncated_poisson": ("rate", "lo", "hi"),
    "fixed": ("m",),
}
_REQUIRED_KEYS = ("beta2", "p1", "rho_s", "rho_u", "cluster_size")


def _load_config(path: str, overrides: list[str]) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = config
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set {key}: {part} is not an object")
        target[parts[-1]] = value
    return config


def _cluster_model(spec) -> ClusterSizeModel:
    if not isinstance(spec, dict):
        raise ConfigError("'cluster_size' must be an object")
    kind = spec.get("kind")
    if kind not in _CLUSTER_KIND_KEYS:
        raise ConfigError(
            f"cluster_size.kind must be discrete_uniform, truncated_poisson or fixed, "
            f"got {kind!r}"
        )
    missing = [k for k in _CLUSTER_KIND_KEYS[kind] if k not in spec]
    if missing:
        raise ConfigError(f"cluster_size of kind {kind} is missing keys: {missing}")
    stray = sorted(set(spec) - {"kind", *_CLUSTER_KIND_KEYS[kind]})
    if stray:  # an unknown key, or one of another kind: the config may mean another law
        raise ConfigError(f"cluster_size of kind {kind} does not take keys: {stray}")
    if kind == "discrete_uniform":
        return ClusterSizeModel.discrete_uniform(_whole(spec, "lo"), _whole(spec, "hi"))
    if kind == "truncated_poisson":
        return ClusterSizeModel.truncated_poisson(
            _number(spec, "rate", "cluster_size."), _whole(spec, "lo"), _whole(spec, "hi")
        )
    return ClusterSizeModel.fixed(_whole(spec, "m"))


def _number(spec: dict, key: str, prefix: str = "", whole: bool = False) -> float:
    """``spec[key]`` as a float: a JSON number, not a boolean, a string or a
    null, and with ``whole`` one with no fractional part.  ``prefix`` is the
    key's path in the config, for the error message."""
    value = spec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        whole and not float(value).is_integer()
    ):
        kind = "a whole number" if whole else "a number"
        raise ConfigError(f"{prefix}{key} must be {kind}, got {value!r}")
    return float(value)


def _whole(spec: dict, key: str) -> int:
    """``spec[key]`` as a cluster size: a whole number, written ``34`` or ``34.0``."""
    return int(_number(spec, key, "cluster_size.", whole=True))


def _design_from_config(config: dict) -> DesignInputs:
    unknown = set(config) - _DESIGN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = [k for k in _REQUIRED_KEYS if k not in config]
    if missing:
        raise ConfigError(f"missing config keys: {missing}")
    # a null optional key is an absent one, so build_design's default holds
    numbers = {
        key: _number(config, key)
        for key in _NUMBER_KEYS
        if key in _REQUIRED_KEYS or config.get(key) is not None
    }
    try:
        return build_design(**numbers, cluster_sizes=_cluster_model(config["cluster_size"]))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ZipCrtError):
            raise
        raise ConfigError(f"invalid config value: {exc}")


def _design_to_dict(design: DesignInputs) -> dict:
    """The design as a config that :func:`_design_from_config` reads back
    to an equal design: each parameter once, and the size law's own keys."""
    size = design.cluster_sizes
    keys = {"lo": size.lo, "hi": size.hi, "rate": size.rate, "m": size.lo}
    return {
        "beta1": design.beta1,
        "beta2": design.beta2,
        "p1": design.p1,
        "p2": design.p2,
        "rho_s": design.rho_s,
        "rho_u": design.rho_u,
        "r_bar": design.r_bar,
        "alpha": design.alpha,
        "power": design.power,
        "cluster_size": {"kind": size.kind, **{k: keys[k] for k in _CLUSTER_KIND_KEYS[size.kind]}},
    }


# What the study and tables manifests record about the Monte Carlo engine,
# and the simulate and tables manifests about the dataset generator: with
# the seed, they fix every simulated rate, ICC and dataset.
_ENGINE = {
    "name": ENGINE,
    "version": ENGINE_VERSION,
    "stream_tag": STREAM_TAG,
    "chunk_replicates": CHUNK_REPLICATES,
}
_GENERATOR = {"name": GENERATOR, "version": GENERATOR_VERSION, "stream_tag": TRIAL_STREAM_TAG}


def _write_manifest(
    out_path: str, command: str, resolved: dict, seed: Optional[int], **extra: dict
) -> None:
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    manifest = {
        "command": command,
        "config_digest": f"sha256:{digest}",
        "seed": seed,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    manifest.update(extra)
    with open(out_path + ".manifest.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _resolve_seed(seed: Optional[int]) -> int:
    if seed is None:
        seed = secrets.randbits(63)
        print(f"seed = {seed} (generated)")
    if not (0 <= seed < 2**64):
        raise ConfigError(f"--seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _cmd_samplesize(args) -> int:
    design = _design_from_config(_load_config(args.config, args.set))
    split = decompose_effect(design)
    normal = sample_size_normal(design)
    student = sample_size_t(design)
    print(f"q = {_fmt(split.q) if split.q is not None else 'undefined'}")
    print(f"p2 = {_fmt(design.p2)}")
    print(f"zeta1 = {_fmt(pairwise_covariance_factor(design.control, design.rho_s, design.rho_u))}")
    print(f"zeta2 = {_fmt(pairwise_covariance_factor(design.intervention, design.rho_s, design.rho_u))}")
    print(f"sigma2_sq = {_fmt(normal.sigma2_sq)}")
    print(f"N_z = {normal.n_clusters}")
    print(f"N_t = {student.n_clusters} (df = {student.df})")
    return 0


def _cmd_sweep(args) -> int:
    design = _design_from_config(_load_config(args.config, args.set))
    try:
        q_values = [float(v) for v in args.q.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"--q expects a comma-separated list of numbers, got {args.q!r}")
    if not q_values:
        raise ConfigError("--q produced an empty list")
    normal_entries = q_sweep(design, q_values, basis="normal")
    t_entries = q_sweep(design, q_values, basis="t")
    lines = ["q,p2,n_z,n_t,error"]
    successes = 0
    for normal, student in zip(normal_entries, t_entries):
        if normal.error is not None:
            lines.append(f'{_fmt(normal.q)},,,,"{normal.error}"')
            continue
        successes += 1
        # a t sizing can fail where the normal one holds: too few clusters for df >= 1
        n_t = student.result.n_clusters if student.result else ""
        error = f'"{student.error}"' if student.error else ""
        lines.append(
            f"{_fmt(normal.q)},{_fmt(normal.p2)},{normal.result.n_clusters},{n_t},{error}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        _write_manifest(
            args.out, "sweep",
            {"design": _design_to_dict(design), "q_values": q_values}, None,
        )
    print(text, end="")
    return 0 if successes else 2


def _cmd_simulate(args) -> int:
    design = _design_from_config(_load_config(args.config, args.set))
    seed = _resolve_seed(args.seed)
    dataset = generate_trial(
        design, args.clusters, seed, bernoulli_allocation=args.bernoulli_allocation
    )
    write_dataset(dataset, args.out)
    resolved = {
        "design": _design_to_dict(design),
        "n_clusters": args.clusters,
        "bernoulli_allocation": args.bernoulli_allocation,
        "seed": seed,
    }
    _write_manifest(args.out, "simulate", resolved, seed, generator=_GENERATOR)
    print(f"wrote {dataset.n_clusters} clusters / {dataset.n_subjects} subjects to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    data = read_dataset(args.data)
    fit = fit_zip(data)
    n = fit.n_clusters
    reference = "normal" if args.reference == "z" else "t"
    df = _test_df(args.df_rule, n)  # wald_test ignores it under the normal
    # every test runs before anything is printed, so a bad --alpha prints nothing
    tests = {
        name: wald_test(float(fit.beta_hat[1]), fit.sigma2_sq(name), n, reference, args.alpha, df)
        for name in ESTIMATORS
    }
    se = [fit.se(name) for name in ESTIMATORS]
    blank = "," * len(ESTIMATORS)
    print("parameter,estimate," + ",".join(f"se_{name}" for name in ESTIMATORS))
    for i, name in enumerate(("beta1", "beta2")):
        print(",".join([name, _fmt(fit.beta_hat[i]), *(_fmt(e[i]) for e in se)]))
    for i, name in enumerate(("alpha1", "alpha2")):
        print(f"{name},{_fmt(fit.alpha_hat[i])}{blank}")
    for k, p in enumerate(fit.p_hat, start=1):
        print(f"p{k}_hat,{_fmt(p)}{blank}")
    for k, p in enumerate(fit.p_hat, start=1):
        if p == 0.0:
            print(
                f"warning: p{k}_hat is on the boundary 0 (the arm has no more "
                "zeros than a Poisson model predicts)",
                file=sys.stderr,
            )
    if fit.degenerate:
        print("warning: degenerate fit (an arm has no zeros)", file=sys.stderr)

    print("test,statistic,reference,critical_value,reject")
    for name, test in tests.items():
        label = "z" if test.df is None else f"t({test.df})"
        print(
            f"{name},{_fmt(test.statistic)},{label},"
            f"{_fmt(test.critical_value)},{'yes' if test.reject else 'no'}"
        )
    return 0


def _cmd_study(args) -> int:
    design = _design_from_config(_load_config(args.config, args.set))
    seed = _resolve_seed(args.seed)
    config = StudyConfig(
        design=design,
        replications=args.reps,
        use_t_sizing=args.sizing == "t",
        test_df_rule=args.df_rule,
        seed=seed,
        null_hypothesis=args.null,
    )
    report = run_power_study(config)
    kind = "type_i" if args.null else "power"
    rates = report.rejection_rate
    lines = [
        f"n_clusters = {report.n_clusters_used}",
        *(f"{kind}_{name} = {_fmt(rate)}" for name, rate in rates.items()),
        f"mc_standard_error = {_fmt(report.mc_standard_error)}",
        f"replicate_failures = {report.replicate_failures}",
    ]
    print("\n".join(lines))
    if args.out:
        fields = {
            "n_clusters": report.n_clusters_used,
            **{f"rejection_rate_{name}": _fmt(rate) for name, rate in rates.items()},
            "mc_standard_error": _fmt(report.mc_standard_error),
            "replicate_failures": report.replicate_failures,
            "replications": report.replications,
        }
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(",".join(fields) + "\n" + ",".join(map(str, fields.values())) + "\n")
        resolved = {
            "design": _design_to_dict(design),
            "replications": args.reps,
            "sizing": args.sizing,
            "df_rule": args.df_rule,
            "null_hypothesis": args.null,
            "seed": seed,
        }
        _write_manifest(args.out, "study", resolved, seed, engine=_ENGINE, seconds=report.seconds)
    return 0


def _cmd_tables(args) -> int:
    selection = [s.strip() for s in args.which.split(",") if s.strip()]
    if not selection:
        raise ConfigError("--which produced an empty list")
    seed = _resolve_seed(args.seed)
    reports = reproduce_tables(selection, args.reps, seed)
    for report in reports:
        text = report.to_text()
        if args.out:
            path = f"{args.out}.{report.table}.csv"
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            timed = {"seconds": report.seconds} if report.seconds else {}
            _write_manifest(
                path, "tables",
                {"table": report.table, "replications": args.reps, "seed": seed},
                seed, engine=_ENGINE, generator=_GENERATOR, **timed,
            )
            print(f"wrote {path}")
        else:
            print(f"# {report.table}")
            print(text, end="")
    return 0


_DF_RULE_HELP = "degrees of freedom of the t reference; ignored under %s z"


@functools.cache  # one parser serves every call of main in a process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zipcrt",
        description="Design and simulation toolkit for cluster randomized trials "
        "with zero-inflated Poisson outcomes.",
    )
    parser.add_argument("--version", action="version", version=f"zipcrt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", required=True, help="design JSON file")
        p.add_argument(
            "--set", action="append", default=[], metavar="KEY=VALUE",
            help="override a config key (dotted paths allowed)",
        )

    p = sub.add_parser("samplesize", help="required cluster counts for a design")
    add_config(p)
    p.set_defaults(func=_cmd_samplesize)

    p = sub.add_parser("sweep", help="sample-size sensitivity over the effect split q")
    add_config(p)
    p.add_argument("--q", required=True, help="comma-separated q values")
    p.add_argument("--out", help="write the sweep table to this CSV file")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="generate a trial dataset")
    add_config(p)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="dataset CSV path")
    p.add_argument(
        "--bernoulli-allocation", action="store_true",
        help="allocate each cluster by an independent coin instead of "
        "deterministic balance",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit the model to a dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--reference", choices=("z", "t"), default="t")
    p.add_argument("--df-rule", choices=DF_RULES, default="n-2", help=_DF_RULE_HELP % "--reference")
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("study", help="empirical power or type I error study")
    add_config(p)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sizing", choices=("z", "t"), default="z")
    p.add_argument("--df-rule", choices=DF_RULES, default="n-2", help=_DF_RULE_HELP % "--sizing")
    p.add_argument("--null", action="store_true", help="measure type I error")
    p.add_argument("--out", help="write the report CSV here")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("tables", help="recompute the bundled study tables")
    p.add_argument("--which", required=True, help="comma list: table1,table2,table3-icc")
    p.add_argument("--reps", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="output path prefix")
    p.set_defaults(func=_cmd_tables)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StudyError as exc:
        print(f"study error: {exc}", file=sys.stderr)
        return 3
    except ZipCrtError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
