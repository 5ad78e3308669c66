"""Command-line entry point.

Subcommands: tower, diagonal, gaussian, boundary, verify.  Each run reads
one YAML config (see config.py for the schema), writes a reproducibility
bundle (summary.json, per-artifact CSVs, resolved config copy) into the
output directory, and exits with a category code on failure: 2 input,
3 model, 4 numerical, 5 resource.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .boundary import (ProductCylinderWeights, boundary_feature_gram, build_doob, cylinder_measure,
                       gauge_from_tower, intertwining_check, normalization_commutes, sample_path,
                       sorted_words)
from .config import Config, load_config, override, parse_config
from .diagonal import blowup_detect, diagonal_trace, lyapunov_verify
from .errors import EXIT_NUMERICAL, EXIT_RESOURCE, InputError, KernelTowerError, ResourceError
from .gaussian import (TowerSampler, _z_scores, empirical_covariance, export_batch_csv,
                       martingale_checks, sample_covariance)
from .kernels import gram, psd_check
from .models import FiniteStateModel, Model, WordTreeModel, build_model
from .points import orbit_closure, point_label
from .reports import Bundle, RunReport
from .rngs import GENERATOR_NAME
from .tower import (TELESCOPE_RTOL, build_tower, defect_gram, estimate_K_infinity,
                    invariance_residual, level_via_words)
from .verify import (BOUNDARY_RESIDUAL_TOL, CYLINDER_SUM_TOL, INTERTWINING_TOL, LAYER_CAKE_TOL,
                     NU_INVARIANCE_TOL, WORD_ROUTE_TOL, VerifyContext, run_checks)

WORD_CHECK_LEVELS = 8  # the deepest level the word routes re-check
STEP_CHECK_LEVELS = 5  # the steps of the intertwining and normalization checks


def _resolve_base(cfg: Config, model: Model):
    if cfg.base_points:
        base = model.points(cfg.base_points)
    elif isinstance(model, FiniteStateModel):
        base = model.all_states()
    else:
        raise InputError("config base_points: required for this model")
    if cfg.closure_depth > 0:
        base = orbit_closure(model.branch, base, cfg.closure_depth, cfg.pair_cap)
    return base


def _resolve_certificate(cfg: Config, model: Model, base):
    """Build and verify the configured Lyapunov certificate, or report why not."""
    spec = cfg.certificate
    if spec in ("none", None):
        return None, "disabled"
    if spec == "auto":
        if isinstance(model, WordTreeModel):
            r_fn, C, beta = model.defect_lyapunov()
        elif isinstance(model, FiniteStateModel) and model.lyapunov:
            values = model.lyapunov["r"]
            r_fn = lambda s: values[s]
            C, beta = model.lyapunov["C"], model.lyapunov["beta"]
        else:
            return None, "no certificate available for this model"
    else:
        C, beta, r_spec = spec["C"], spec["beta"], spec["r"]
        if r_spec["kind"] == "length-decay":
            bb = r_spec["base"]
            r_fn = lambda s: bb ** len(s)
        else:
            values = {model.point(k): v for k, v in r_spec["values"].items()}
            def r_fn(s):  # the table must cover the certificate's domain
                if s not in values:
                    raise InputError(f"config certificate.r.values: no value at point {point_label(s)}")
                return values[s]
    if hasattr(model, "oracle_defect"):
        d0 = lambda s: model.oracle_defect(0, s, s)
    else:  # one point at a time: the domain may be large, and only its diagonal is read
        d0 = lambda s: float(defect_gram(model.kernel, model.branch, [s], cfg.pair_cap)[0, 0])
    domain = orbit_closure(model.branch, base, min(cfg.horizon + 1, 8), cfg.pair_cap)
    outcome = lyapunov_verify(d0, model.branch, r_fn, C, beta, domain)
    if hasattr(outcome, "bound"):
        return outcome, "verified"
    return None, f"refuted: {outcome}"


def cmd_tower(cfg: Config, model: Model, base, bundle: Bundle) -> dict:
    results = {}

    sub_pts = orbit_closure(model.branch, base, min(cfg.horizon, 2), cfg.pair_cap)
    base_psd = psd_check(gram(model.kernel, sub_pts), cfg.tol)
    sub_defect = psd_check(defect_gram(model.kernel, model.branch, sub_pts, cfg.pair_cap), cfg.tol)
    results["subinvariance"] = {
        "base_psd_min_eig": base_psd.min_eigenvalue,
        "defect_psd_min_eig": sub_defect.min_eigenvalue,
        "defect_psd": sub_defect.psd,
        "tolerance": cfg.tol,
        "points": len(sub_pts),
    }

    tower = build_tower(model.kernel, model.branch, base, cfg.horizon, cfg.tol, cfg.pair_cap)
    for n, lvl in enumerate(tower.levels):
        bundle.add_gram_csv(f"gram_level_{n:02d}.csv", tower.points, lvl)
    for n, D in enumerate(tower.defects):
        bundle.add_gram_csv(f"gram_defect_{n:02d}.csv", tower.points, D)
    results["tower"] = {
        "horizon": cfg.horizon,
        "telescoping_rel_residual": tower.telescoping_residual,
        "telescoping_tolerance": TELESCOPE_RTOL,
        "defect_min_eigs": [r.min_eigenvalue for r in tower.defect_reports],
        "trace_increments": tower.trace_increments,
    }

    word_n = min(cfg.horizon, WORD_CHECK_LEVELS)
    worst_word = 0.0
    words = level_via_words(model.kernel, model.branch, base, word_n, cfg.pair_cap)
    for n, W in enumerate(words):
        worst_word = max(worst_word, float(np.max(np.abs(W.entries - tower.levels[n]))))
    results["word_expansion"] = {
        "levels_checked": word_n,
        "max_abs_residual": worst_word,
        "tolerance": WORD_ROUTE_TOL,
    }

    cert, cert_status = _resolve_certificate(cfg, model, base)
    est_base = orbit_closure(model.branch, base, 1, cfg.pair_cap)
    est = estimate_K_infinity(
        model.kernel, model.branch, est_base,
        tol=cfg.tol, trace_eps=cfg.trace_eps, max_levels=cfg.max_levels,
        ceiling=cfg.ceiling, certificate=cert, pair_cap=cfg.pair_cap,
    )
    bundle.add_gram_csv("gram_completion.csv", est.points, est.entries)
    bundle.add_gram_csv("completion_bounds.csv", est.points, est.bound)
    inv_res = invariance_residual(est, model.branch, base)
    results["completion"] = {
        "levels_used": est.levels_used,
        "converged_by_trace": est.converged,
        "bound_label": est.bound_label,
        "certificate": cert_status,
        "max_bound": float(np.max(est.bound)) if np.all(np.isfinite(est.bound)) else "inf",
        "invariance_residual": inv_res,
    }
    return results


def cmd_diagonal(cfg: Config, model: Model, base, bundle: Bundle) -> dict:
    results = {"traces": {}, "layer_cake": {}}

    rows = []
    verdicts = {}
    worst_cake = 0.0
    for s in base:
        trace = diagonal_trace(
            model.kernel, model.branch, s, cfg.horizon,
            trace_eps=cfg.trace_eps, ceiling=cfg.ceiling, cap=cfg.pair_cap,
        )
        label = point_label(s)
        verdicts[label] = trace.verdict
        results["traces"][label] = {"verdict": trace.verdict, "values": trace.values}
        for n, u in enumerate(trace.values):
            rows.append((label, n, u))
        for lc in trace.layer_cake[:WORD_CHECK_LEVELS + 1]:
            worst_cake = max(worst_cake, lc.residual / max(1.0, abs(lc.word_sum)))
    bundle.add_csv("diagonal_traces.csv", ["point", "level", "u_n"], rows)
    results["layer_cake"] = {"max_rel_residual": worst_cake, "tolerance": LAYER_CAKE_TOL}

    cert, cert_status = _resolve_certificate(cfg, model, base)
    results["certificate"] = {"status": cert_status}
    if cert is not None:
        results["certificate"].update({"C": cert.C, "beta": cert.beta,
                                       "domain_size": len(cert.domain)})
    elif any(v != "converging" for v in verdicts.values()) and cfg.horizon >= 1 and model.branch.m >= 2:
        # A witness needs a level n >= 1 and a growth rate rho = m > 1.
        levels = list(range(1, min(cfg.horizon, WORD_CHECK_LEVELS) + 1))
        witness = blowup_detect(
            model.kernel, model.branch, base[0], lambda x: True,
            1.0, float(model.branch.m), levels, cfg.pair_cap,
        )
        results["blowup_witness"] = {
            "valid": witness.valid,
            "levels": witness.levels,
            "counts": witness.counts,
            "epsilon": witness.epsilon,
            "rho": witness.rho,
        }
    return results


def cmd_gaussian(cfg: Config, model: Model, base, bundle: Bundle) -> dict:
    tower = build_tower(model.kernel, model.branch, base, cfg.horizon, cfg.tol, cfg.pair_cap)
    sampler = TowerSampler(tower, cfg.seed, cfg.tol)
    batch = sampler.sample(cfg.nsamples)

    cov, se = empirical_covariance(batch, batch.top_level)
    mart = martingale_checks(batch, tower)
    # The limit fields of this seed are the batch's level 0 and top level.
    covY, _ = sample_covariance(batch.level(0))
    covD, _ = sample_covariance(batch.level(batch.top_level) - batch.level(0))

    bundle.add_gram_csv("empirical_covariance.csv", tower.points, cov)
    bundle.add_gram_csv("empirical_covariance_se.csv", tower.points, se)
    if cfg.gaussian.get("export_samples"):
        export_batch_csv(batch, bundle.outdir / "samples.csv")

    return {
        "generator": GENERATOR_NAME,
        "seed": cfg.seed,
        "nsamples": cfg.nsamples,
        "top_level_max_z": float(np.max(_z_scores(cov - tower.levels[-1], se))),
        "martingale": {
            "max_mean_z": mart.max_mean_z,
            "max_cross_z": mart.max_cross_z,
            "max_qv_z": mart.max_qv_z,
            "threshold": mart.threshold,
            "passed": mart.passed,
        },
        "compression": {
            "covY_vs_K_max_abs": float(np.max(np.abs(covY - tower.levels[0]))),
            "covZmY_vs_defects_max_abs": float(
                np.max(np.abs(covD - (tower.levels[-1] - tower.levels[0])))
            ),
        },
    }


def _check_boundary_weights(cfg: Config, m: int) -> None:
    for key in ("nu", "nu_alt"):
        if len(cfg.boundary[key]) != m:
            raise InputError(f"config boundary.{key}: expected {m} weights, "
                             f"one per map, got {len(cfg.boundary[key])}")


def _check_cylinder_table(cfg: Config, m: int, anchors: int) -> None:
    """Refuse a cylinder table of anchors x (words of length <= cylinder_levels)
    past the pair cap; counting stops at the first level past it, as m**n may be huge."""
    n, cap = cfg.boundary["cylinder_levels"], cfg.pair_cap
    words = n + 1  # one map: one word per level
    if m > 1:
        words, level = 0, 1
        for _ in range(n + 1):
            words, level = words + level, level * m
            if anchors * words > cap:
                break
    if anchors * words > cap:
        raise ResourceError(f"boundary cylinder table: {anchors} anchors by the words of length "
                            f"<= {n} exceed the pair cap of {cap}; lower config boundary.cylinder_levels")


def cmd_boundary(cfg: Config, model: Model, base, bundle: Bundle) -> dict:
    cyl_levels = cfg.boundary["cylinder_levels"]
    feat_levels = cfg.boundary["feature_levels"]

    gauge_info = {}
    if hasattr(model, "oracle_gauge"):
        gauge, domain = model.oracle_gauge, base
        gauge_info["source"] = "closed-form"
    else:
        closure = orbit_closure(model.branch, base, 1, cfg.pair_cap)
        gtower = build_tower(model.kernel, model.branch, closure, cfg.horizon, cfg.tol, cfg.pair_cap)
        gauge, positive = gauge_from_tower(gtower)
        if not positive:
            raise InputError(
                f"the level-{cfg.horizon} tower diagonal vanishes on the one-step "
                "closure of the base points: no gauge-positive domain"
            )
        domain = positive
        gauge_info["source"] = f"tower diagonal at level {cfg.horizon}"
        cert, cert_status = _resolve_certificate(cfg, model, base)
        gauge_info["certificate"] = cert_status
        if cert is not None:
            # The certificate domain contains the one-step closure, hence ``positive``.
            gauge_info["harmonicity_budget"] = max(
                cert.bound(s, s, cfg.horizon) for s in positive
            )
    # The chain checks the domain's rows now, and every other row when a walk
    # first reads it; a gauge not harmonic on the domain is refused before
    # the weight count.
    chain = build_doob(gauge, model.branch, domain, cfg.tol)
    _check_boundary_weights(cfg, model.branch.m)
    base = [s for s in base if chain.in_domain(s)]
    if not base:
        raise InputError("no base points inside the gauge-positive domain")
    _check_cylinder_table(cfg, model.branch.m, len(base))

    # The feature Gram comes first: its section pair cap refuses before any
    # depth-cylinder_levels walk.
    tower = build_tower(model.kernel, model.branch, base, feat_levels, cfg.tol, cfg.pair_cap)
    nu = ProductCylinderWeights(cfg.boundary["nu"])
    nu_alt = ProductCylinderWeights(cfg.boundary["nu_alt"])
    bg, bg_alt = boundary_feature_gram(model.kernel, tower, chain, [nu, nu_alt], feat_levels,
                                       cfg.tol, cfg.pair_cap)
    bundle.add_gram_csv("boundary_gram.csv", bg.points, bg.entries)

    # The walks apply the word cap before the words are listed.
    tables = [cylinder_measure(chain, s, cyl_levels, cfg.pair_cap) for s in base]
    words, order = sorted_words(model.branch.m, cyl_levels)
    masses = np.empty((len(base), len(order)))
    for row, table in zip(masses, tables):
        row[:] = np.concatenate(table.masses)[order]
    bundle.add_gram_csv("cylinders.csv", base, masses, columns=[w or "-" for w in words],
                        header="anchor_label,word,probability")

    f = (lambda s: 0.5 ** len(s)) if isinstance(model, WordTreeModel) else (lambda s: float(s) + 1.0)
    inter = intertwining_check(chain, f, base[0], min(cyl_levels, STEP_CHECK_LEVELS), cfg.pair_cap)
    norm_res = normalization_commutes(model.kernel, chain, base, min(feat_levels, STEP_CHECK_LEVELS))

    results = {
        "gauge": gauge_info,
        "cylinders": {
            "levels": cyl_levels,
            "max_level_sum_error": max(table.level_sum_error() for table in tables),
            "tolerance": CYLINDER_SUM_TOL,
        },
        "intertwining": {
            "one_step_residual": inter.one_step_residual,
            "markov_residual": inter.markov_residual,
            "normalization_residual": norm_res,
            "tolerance": INTERTWINING_TOL,
        },
        "boundary_gram": {
            "levels": feat_levels,
            "residual": bg.residual,
            "nu": nu.describe(),
            "nu_alt": nu_alt.describe(),
            "nu_invariance": bg.nu_shift(bg_alt),
            "tolerances": {"residual": BOUNDARY_RESIDUAL_TOL, "nu_invariance": NU_INVARIANCE_TOL},
        },
    }
    if cfg.seed is not None:
        path = sample_path(chain, base[0], min(cyl_levels, 16), cfg.seed)
        results["sample_path"] = {
            "word": "".join(map(str, path.word)),
            "points": [point_label(x) for x in path.points],
        }
    gauge_info["harmonicity_residual"] = chain.harmonicity_residual  # over every row read
    return results


PIPELINES = {
    "tower": cmd_tower,
    "diagonal": cmd_diagonal,
    "gaussian": cmd_gaussian,
    "boundary": cmd_boundary,
}


def run_pipeline(command: str, cfg: Config, outdir: Path, verbose: bool) -> int:
    """Model -> base -> bundle -> results -> report, around one pipeline subcommand."""
    t0 = time.perf_counter()
    model = build_model(cfg.model_kind, cfg.model_params, cfg.tol)
    base = _resolve_base(cfg, model)
    bundle = Bundle(outdir, cfg.formats)
    results = PIPELINES[command](cfg, model, base, bundle)
    summary = RunReport(command, cfg.resolved(), results).summary_json()
    bundle.finish(summary, cfg.echo_yaml())
    if verbose:
        print(f"{command}: wrote {outdir} in {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    print(summary, end="")
    return 0


def cmd_verify(cfg: Config, outdir: Path, verbose: bool) -> int:
    ctx = VerifyContext(
        seed=VerifyContext.seed if cfg.seed is None else cfg.seed,
        nsamples=cfg.nsamples,
        tol=cfg.tol,
        ceiling=cfg.ceiling,
    )
    results = run_checks(ctx, progress=lambda r: print(r.line()))
    bundle = Bundle(outdir, cfg.formats)
    bundle.add_csv(
        "verify_results.csv",
        ["criterion", "name", "passed"],
        [(r.criterion, r.name, r.passed) for r in results],
    )
    report = RunReport(
        "verify",
        cfg.resolved(),
        {
            "checks": {
                r.name: {"criterion": r.criterion, "passed": r.passed, **r.metrics}
                for r in results
            },
            "all_passed": all(r.passed for r in results),
        },
    )
    bundle.finish(report.summary_json(), cfg.echo_yaml())
    failures = [r for r in results if not r.passed]
    if failures:
        first = failures[0]
        print(
            f"verify FAILED at criterion {first.criterion} ({first.name}): {first.detail}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    if verbose:
        total = sum(r.elapsed for r in results)
        print(f"verify: all {len(results)} criteria passed in {total:.1f}s", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerneltower",
        description="Kernel towers under branching maps: completion, diagnostics, simulation, boundary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*PIPELINES, "verify"]:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="output directory (default runs/<command>)")
        p.add_argument("--format", choices=["csv", "json", "both"], help="bundle formats")
        p.add_argument("--tol", type=float, help="override PSD/identity tolerance")
        p.add_argument("--max-level", type=int, dest="max_level", help="override horizon")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
        elif args.command == "verify":
            cfg = parse_config({"model": {"kind": "word-tree"}})
        else:
            raise InputError("--config is required for this subcommand")
        for key, flag, value in (("seed", "--seed", args.seed), ("tol", "--tol", args.tol),
                                 ("horizon", "--max-level", args.max_level)):
            if value is not None:
                override(cfg, key, value, flag)
        if args.format:
            cfg.formats = ["csv", "json"] if args.format == "both" else [args.format]
        if args.command == "gaussian":  # refused before any work
            if cfg.seed is None:
                raise InputError("config seed: required for the gaussian subcommand")
            if cfg.horizon < 1:
                raise InputError("config horizon: gaussian needs at least 1, a defect level to sample")
            if cfg.nsamples < 2:
                raise InputError("config nsamples: gaussian needs at least 2 to estimate a covariance")
        outdir = Path(args.out) if args.out else Path("runs") / args.command
        with np.errstate(all="ignore"):  # every non-finite value meets a named check
            if args.command == "verify":
                return cmd_verify(cfg, outdir, args.verbose)
            return run_pipeline(args.command, cfg, outdir, args.verbose)
    except KernelTowerError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError:
        print(f"error[resource]: {args.command} ran out of memory", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
