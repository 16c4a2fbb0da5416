"""Seeded inputs, ops and output checks for the four benchmark workloads.

Each workload is a pool of ops built from the seed alone.  An op is one call
into affkit (a library function or the in-process CLI).  Its raw output is
turned into a JSON-able record, and each record is checked against
invariants that hold for any seed; the default seed additionally has a
golden record (see ``make_golden.py``).  The benchmark loop cycles through
the pool in order, and a run covers a prefix of it whose length depends on
the speed of the code, so every pool is ordered such that any prefix has
about the mix of the whole pool.

Invariant checks by workload (they apply to every seed):

* sweep / curved ``killing --basis``: dim <= 6, one basis jet per dimension,
  the jets independent, the family's known Killing fields inside the span
  (translations for Type A, d2 and -x1 d1 - x2 d2 for A/x1, the rotation
  triple and dim 3 for the sphere), and dim = 6 exactly when curvature and
  torsion vanish (decided exactly for Type A and A/x1).  For Type A and A/x1
  the span must also be a Lie algebra under an independent exact jet
  bracket: every bracket of two basis jets lies in the span, and the
  structure constants have zero Jacobi residual.  A space with a spurious
  extra jet fails this.
* curved ``tensors``: every printed component agrees to 1e-7 (relative) with
  an independent Taylor-jet recomputation at two test points.
* classify: exit code 0, or 1 with ``ClassificationInconclusive``; the dim
  equals that of the Killing jet space, which must pass the checks above
  (closure and Jacobi included); every TypeA / TypeB witness is re-verified
  exactly with an independent jet bracket and must be effective; so3
  witnesses must satisfy their relations to 1e-9.  ``verify-paper`` passes
  every item; its negative control exits 1 with the injected item failing.
* charts: every chart report passes with each residual below its tolerance
  (1e-4), Killing flows pull the symbols back to within 1e-5, the
  non-Killing control deviates by more than 1e-2, and finite-difference
  Killing residuals stay below 1e-5.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracle
from oracle import KEYS, gq

# Pool sizes: one pass over a pool takes longer than a run of the seed code,
# so a faster version cycles instead of running out of inputs.
SWEEP_POOL = 600
CURVED_PER_FAMILY = 60
CLASSIFY_BLOCKS = 2
CHART_ROUNDS = 20
CHART_GRID = 7        # chart verification grid, n x n points

NEGATIVE_CONTROL_ITEM = {"ricci-sign": "sphere-ricci",
                         "drop-kernel-row": "symbol-kernel-rank",
                         "corrupt-structure": "structure-constants-valid"}
E1, E2 = [gq(1), gq(0), gq(0), gq(0), gq(0), gq(0)], [gq(0), gq(1), gq(0), gq(0), gq(0), gq(0)]
RADIAL_JET = [gq(-1), gq(0), gq(-1), gq(0), gq(0), gq(-1)]   # -x1 d1 - x2 d2 at (1, 0)
SPHERE_JETS = [E1, [gq(0), gq(0), gq(0), gq(-1), gq(1), gq(0)], E2]
KNOWN_JETS = {"A": [E1, E2], "B": [E2, RADIAL_JET], "sphere": SPHERE_JETS}
TRIG_MENU = ("{c}", "{c}*x1", "{c}*x2", "{c}*sin(x1)", "{c}*cos(x1)", "{c}*tan(x1)",
             "{c}*exp({k}*x2)", "{c}*sin(x1)*cos(x1)")


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    record: Callable[[object], dict]
    check: Callable[[dict], list]
    view: Callable[[dict], object]          # the golden-compared part
    corrupt: Callable[[dict], None]         # injects one wrong answer
    compare: Callable[[object, object], list] = None
    extra: dict = field(default_factory=dict)

    def against_golden(self, rec: dict, golden) -> list:
        mine = self.view(rec)
        if self.compare is not None:
            return self.compare(mine, golden)
        return [] if mine == golden else [f"differs from golden: {mine!r} != {golden!r}"]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _affkit():
    import affkit.cli
    import affkit.coords
    import affkit.killing
    import affkit.numeric
    import affkit.paperchecks
    import affkit.surface
    import affkit.symexpr
    return affkit


def run_cli(argv) -> tuple[int, str]:
    import affkit.cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = affkit.cli.main(argv)
    return code, out.getvalue()


def cli_record(raw) -> dict:
    code, text = raw
    return {"code": code, "stdout": text, "sha": hashlib.sha256(text.encode()).hexdigest()}


def _payload(rec):
    try:
        return json.loads(rec["stdout"])
    except ValueError:
        return None


def _rewrite(rec, payload, code=None):
    rec["stdout"] = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    rec["sha"] = hashlib.sha256(rec["stdout"].encode()).hexdigest()
    if code is not None:
        rec["code"] = code


def _write_surface(s, path: Path) -> str:
    from affkit.surface import surface_to_json
    path.write_text(json.dumps(surface_to_json(s), sort_keys=True), encoding="utf-8")
    return str(path)


def _rows(strings):
    return [[oracle.parse_scalar(x) for x in row] for row in strings]


def _canonical(rows):
    return [[oracle.fmt(x) for x in row] for row in oracle.canonical_rref(rows)]


def check_jet_space(dim, basis, family, consts=None) -> list:
    """Invariants of a Killing jet space; ``basis`` as Gaussian-rational rows."""
    bad = []
    if not 0 <= dim <= 6:
        bad.append(f"dim {dim} outside 0..6")
    if len(basis) != dim:
        bad.append(f"{len(basis)} basis jets for dim {dim}")
    if oracle.rank(basis) != len(basis):
        bad.append("basis jets are dependent")
    for jet in KNOWN_JETS.get(family, []):
        if not oracle.in_span(basis, jet):
            bad.append(f"known Killing jet {[oracle.fmt(x) for x in jet]} not in span")
    if family == "sphere" and dim != 3:
        bad.append(f"sphere dim {dim} != 3")
    if consts is not None:
        flat = oracle.exact_flat(family, consts) and oracle.exact_torsion_zero(family, consts)
        if (dim == 6) != flat:
            bad.append(f"dim {dim} but flat and torsion-free is {flat}")
        if not bad:
            bad += oracle.algebra_problems(family, consts, basis)
    return bad


# ---------------------------------------------------------------------------
# sweep: killing_jet_space on dense Type A surfaces
# ---------------------------------------------------------------------------

def _space_record(ks) -> dict:
    basis = [[oracle.fmt((x.re, x.im)) for x in jet.as_vector()] for jet in ks.basis]
    return {"dim": ks.dim, "basis": basis, "history": list(ks.constraint_history)}


def _space_check(consts, rec) -> list:
    return check_jet_space(rec["dim"], _rows(rec["basis"]), "A", consts)


def _space_view(rec):
    return {"dim": rec["dim"], "canonical": _canonical(_rows(rec["basis"]))}


def _space_corrupt(rec):
    rec["dim"] += 1


def sweep(seed: int, workdir: Path) -> list[Op]:
    affkit = _affkit()
    rng = random.Random(seed)
    ops = []
    for _ in range(SWEEP_POOL):
        vals = {k: rng.randint(-2, 2) for k in KEYS}
        s = affkit.surface.type_a(vals)
        consts = {k: gq(v) for k, v in vals.items()}
        ops.append(Op("killing_jet_space",
                      partial(lambda s: affkit.killing.killing_jet_space(s), s),
                      _space_record, partial(_space_check, consts), _space_view,
                      _space_corrupt, extra={"surface": s, "family": "A"}))
    return ops


# ---------------------------------------------------------------------------
# curved: CLI tensors and killing --basis on non-constant and complex input
# ---------------------------------------------------------------------------

def _trig_surface(rng):
    affkit = _affkit()
    texts = {}
    for key in KEYS:
        if rng.random() < 0.35:
            texts[key] = rng.choice(TRIG_MENU).format(
                c=rng.choice(("-2", "-1", "1", "2", "1/2", "-1/2")),
                k=rng.choice(("1", "-1", "2", "1*i", "-1*i")))
    domain = "|x1| < pi/2" if any("tan" in t for t in texts.values()) else ""
    gamma = {k: affkit.symexpr.parse(t) for k, t in texts.items()}
    return affkit.surface.make_surface(gamma, (0, 0), domain)


def _tensor_check(gamma_text, points, rec) -> list:
    if rec["code"] != 0:
        return [f"tensors exit code {rec['code']}"]
    out = _payload(rec)
    if out is None or set(out) != {"rho", "torsion", "curvature", "nabla_rho"}:
        return ["tensors output lacks a requested tensor"]
    bad = []
    for p in points:
        want = oracle.tensors_at(gamma_text, p)
        got = {"rho": {(j, k): out["rho"][j - 1][k - 1] for j in (1, 2) for k in (1, 2)}}
        for name in ("torsion", "curvature", "nabla_rho"):
            got[name] = {tuple(int(c) for c in key): text for key, text in out[name].items()}
        for name, comps in got.items():
            if set(comps) != set(want[name]):
                bad.append(f"{name}: wrong component set")
                continue
            for idx, text in comps.items():
                value = oracle.eval_jet(text, p).v
                if not oracle.close(value, want[name][idx]):
                    bad.append(f"{name}{idx} = {text} is {value:.6g} at {p}, "
                               f"oracle {want[name][idx]:.6g}")
    return bad[:4]


def _tensor_view(rec):
    text = json.dumps(_payload(rec), sort_keys=True)
    return {"code": rec["code"], "tensors_sha256": hashlib.sha256(text.encode()).hexdigest()}


def _tensor_corrupt(rec):
    out = _payload(rec)
    out["rho"][0][0] = f"({out['rho'][0][0]})+1"
    _rewrite(rec, out)


def _killing_cli_check(family, consts, rec) -> list:
    if rec["code"] != 0:
        return [f"killing exit code {rec['code']}"]
    out = _payload(rec)
    return check_jet_space(out["dim"], _rows(out["basis"]), family, consts)


def _killing_cli_view(rec):
    out = _payload(rec) if rec["code"] == 0 else None
    if out is None:
        return {"code": rec["code"]}
    return {"code": rec["code"], "dim": out["dim"], "canonical": _canonical(_rows(out["basis"]))}


def _killing_cli_corrupt(rec):
    out = _payload(rec)
    out["dim"] += 1
    _rewrite(rec, out)


def curved(seed: int, workdir: Path) -> list[Op]:
    """Groups of three surface files: dense A/x1, Type A with Gaussian-rational
    symbols, and a seeded trig/exp/polynomial symbol set (the sphere in the
    first group).  Every file gets ``tensors``; ``killing --basis`` runs on
    the A/x1, Gaussian and sphere files.  Random trig sets get no Killing op:
    their closure time is heavy-tailed (CV 1.8, up to 1.3 s on two-symbol
    sets), which made the throughput of a run depend on the seed."""
    affkit = _affkit()
    from affkit.scalars import Scalar
    from affkit.surface import surface_to_json
    rng = random.Random(seed)
    ops = []
    for n in range(CURVED_PER_FAMILY):
        vals = {k: rng.randint(-2, 2) for k in KEYS}
        entries = [("B", affkit.surface.type_b(vals), {k: gq(v) for k, v in vals.items()})]
        den = rng.choice((1, 2, 3))
        gauss = {k: gq(Fraction(rng.randint(-2, 2), den), Fraction(rng.randint(-2, 2), den))
                 for k in KEYS}
        gamma = {k: affkit.symexpr.Expr.const(Scalar(*v)) for k, v in gauss.items()}
        entries.append(("A", affkit.surface.make_surface(gamma, (0, 0)), gauss))
        if n == 0:
            entries.append(("sphere", affkit.surface.sphere(), None))
        else:
            entries.append(("trig", _trig_surface(rng), None))
        for family, s, consts in entries:
            path = _write_surface(s, workdir / f"curved_{len(ops):04d}.json")
            gamma_text = surface_to_json(s)["gamma"]
            bp = (float(s.basepoint[0]), float(s.basepoint[1]))
            points = [(bp[0] + 0.13, bp[1] + 0.07), (bp[0] - 0.11, bp[1] + 0.05)]
            argv = ["tensors", path, "--ricci", "--torsion", "--curvature", "--nabla-ricci"]
            ops.append(Op("tensors", partial(run_cli, argv), cli_record,
                          partial(_tensor_check, gamma_text, points), _tensor_view,
                          _tensor_corrupt, extra={"family": family, "path": path}))
            if family == "trig":
                continue
            ops.append(Op("killing", partial(run_cli, ["killing", path, "--basis"]),
                          cli_record, partial(_killing_cli_check, family, consts),
                          _killing_cli_view, _killing_cli_corrupt,
                          extra={"family": family, "path": path}))
    return ops


# ---------------------------------------------------------------------------
# classify: sparse Type A and A/x1 surfaces through the CLI
# ---------------------------------------------------------------------------

def _verify_witness(family, consts, basis, branch) -> list:
    n = len(basis)
    elems = [[oracle.parse_scalar(x) if branch["exact"] else gq(Fraction(x)) for x in e]
             for e in branch["witnesses"]]
    if any(len(e) != n for e in elems):
        return [f"{branch['kind']} witness length differs from dim {n}"]
    jets = [[oracle.ZERO] * 6 for _ in elems]
    for jet, e in zip(jets, elems):
        for i in range(n):
            for r in range(6):
                jet[r] = oracle.add(jet[r], oracle.mul(e[i], basis[i][r]))
    kind = branch["kind"]
    if kind in ("TypeA", "TypeB"):
        x, y = jets
        det = oracle.sub(oracle.mul(x[0], y[1]), oracle.mul(x[1], y[0]))
        if oracle.is_zero(det):
            return [f"{kind} witness pair is not effective"]
        br = oracle.bracket_jet(family, consts, x, y)
        want = [oracle.ZERO] * 6 if kind == "TypeA" else y
        if br != want:
            return [f"{kind} witness fails its relation {branch['relations']}"]
        return []
    if kind == "so3":
        f = [[complex(float(v[0]), float(v[1])) for v in jet] for jet in jets]
        brk = lambda a, b: oracle.bracket_jet(family, consts, a, b, exact=False)
        resid = max(abs(u - v) for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
                    for u, v in zip(brk(f[a], f[b]), f[c]))
        return [] if resid < 1e-9 else [f"so3 relations residual {resid:.2e}"]
    return [f"unknown branch kind {kind}"]


def _classify_check(op_extra, rec) -> list:
    out = _payload(rec)
    if out is None:
        return [f"classify exit code {rec['code']} without JSON output"]
    if rec["code"] == 1:
        ok = out.get("error") == "ClassificationInconclusive"
        return [] if ok else [f"classify exit 1 with {out.get('error')}"]
    if rec["code"] != 0:
        return [f"classify exit code {rec['code']}"]
    import affkit.killing
    ks = affkit.killing.killing_jet_space(op_extra["surface"])
    basis = [[(x.re, x.im) for x in jet.as_vector()] for jet in ks.basis]
    bad = check_jet_space(ks.dim, basis, op_extra["family"], op_extra["consts"])
    if out["dim"] != ks.dim:
        bad.append(f"classify dim {out['dim']} != Killing dim {ks.dim}")
    if not out["branches"]:
        bad.append("exit 0 without a branch")
    for branch in out["branches"]:
        bad += _verify_witness(op_extra["family"], op_extra["consts"], basis, branch)
    return bad


def _classify_view(rec):
    out = _payload(rec) or {}
    view = {"code": rec["code"]}
    if "error" in out:
        view["error"] = out["error"]
    if "dim" in out:
        view["dim"] = out["dim"]
        view["kinds"] = [b["kind"] for b in out["branches"]]
    return view


def _classify_compare(mine, golden) -> list:
    """Exact on code, error and dim; a certified extra branch is allowed,
    a missing branch is not."""
    bad = [f"{k}: {mine.get(k)!r} != golden {golden.get(k)!r}"
           for k in ("code", "error", "dim") if mine.get(k) != golden.get(k)]
    missing = set(golden.get("kinds", [])) - set(mine.get("kinds", []))
    if missing:
        bad.append(f"missing branches {sorted(missing)}")
    return bad


def _classify_corrupt(rec):
    out = _payload(rec)
    if "dim" in out:
        out["dim"] += 1
    _rewrite(rec, out)


def _paper_check(control, rec) -> list:
    out = _payload(rec)
    if out is None:
        return [f"verify-paper exit code {rec['code']} without JSON output"]
    failed = [it["name"] for it in out["items"] if not it["pass"]]
    if control is None:
        if rec["code"] != 0 or not out["pass"] or failed:
            return [f"verify-paper failed items {failed} (exit {rec['code']})"]
        return []
    if rec["code"] != 1 or out["pass"] or out.get("negative_control") != control:
        return [f"negative control {control} did not turn the run red (exit {rec['code']})"]
    if NEGATIVE_CONTROL_ITEM[control] not in failed:
        return [f"negative control {control} left {NEGATIVE_CONTROL_ITEM[control]} passing"]
    return []


def _paper_view(rec):
    out = _payload(rec) or {}
    return {"code": rec["code"], "items": [[it["name"], it["pass"]] for it in out.get("items", [])]}


def _paper_corrupt(rec):
    out = _payload(rec)
    out["items"][0]["pass"] = not out["items"][0]["pass"]
    _rewrite(rec, out)


SPARSE_PAIRS = ((1, 2), (1, -2), (1, -1))   # base values of two-symbol patterns


def _rescale_x2(values: dict, c: int) -> dict:
    """Symbols after the coordinate change x2 -> c*x2: each lower index 2
    contributes a factor c and an upper index 2 a factor 1/c."""
    return {key: Fraction(v) * Fraction(c) ** (key[:2].count("2") - key[2:].count("2"))
            for key, v in values.items()}


def interleave(items: list) -> list:
    """The items in the order t -> items[t * s mod n], with the stride s the
    first integer from n * 0.618 up that is coprime to n.  Every prefix then
    takes items from the whole list evenly (a Kronecker sequence), so no
    stretch of the original order, such as one costly pattern, is over- or
    under-represented in it."""
    n = len(items)
    s = max(1, round(n * (math.sqrt(5) - 1) / 2))
    while math.gcd(s, n) != 1:
        s += 1
    return [items[t * s % n] for t in range(n)]


def _sparse_block(rng) -> list:
    """One block: each one-symbol pattern with base value 1 and each
    two-symbol pattern with the base values in SPARSE_PAIRS, for both
    families, interleaved in a fixed order.  The seed draws for every
    surface whether to apply the reflection x2 -> -x2, which keeps both
    families (constant and A/x1 symbols), the Killing dimension and the
    branch kinds."""
    block = []
    for k in (1, 2):
        for pattern in combinations(KEYS, k):
            for base in ((1,),) if k == 1 else SPARSE_PAIRS:
                for fam in ("A", "B"):
                    c = rng.choice((-1, 1))
                    block.append((fam, _rescale_x2(dict(zip(pattern, base)), c)))
    return interleave(block)


def classify(seed: int, workdir: Path) -> list[Op]:
    """Verify-paper, one negative control, then blocks of sparse surfaces.

    Sparse symbols give Killing dimensions 2, 4 and 6, so liealg and charpoly
    dominate; four dim-4 Type A surfaces per block exhaust the Type B
    witness budget (about 2 s each, the tail).  Op times depend on the
    values: under independent draws the number of such surfaces in a run,
    and with it the throughput and p90, varied by up to a third between
    seeds.  So each block fixes the patterns and base values, and the seed
    varies the input only by reflections, which keep the mix of dimensions;
    the witness search still costs more or less after a reflection.  A run
    covers most of one block; the interleaved order gives every prefix the
    block's mix, so a faster or slower version of the code is measured on
    the same mix.  No drawn surface is dropped.
    """
    affkit = _affkit()
    rng = random.Random(seed)
    control = rng.choice(sorted(NEGATIVE_CONTROL_ITEM))
    ops = [Op("verify-paper", partial(run_cli, ["verify-paper"]), cli_record,
              partial(_paper_check, None), _paper_view, _paper_corrupt),
           Op("negative-control",
              partial(run_cli, ["verify-paper", "--sweep", "2", "--negative-control", control]),
              cli_record, partial(_paper_check, control), _paper_view, _paper_corrupt)]
    for _ in range(CLASSIFY_BLOCKS):
        for fam, vals in _sparse_block(rng):
            s = (affkit.surface.type_a if fam == "A" else affkit.surface.type_b)(vals)
            path = _write_surface(s, workdir / f"classify_{len(ops):03d}.json")
            extra = {"surface": s, "family": fam, "consts": {k: gq(v) for k, v in vals.items()}}
            ops.append(Op("classify", partial(run_cli, ["classify", path]), cli_record,
                          partial(_classify_check, extra), _classify_view, _classify_corrupt,
                          _classify_compare, extra))
    return ops


# ---------------------------------------------------------------------------
# charts: chart builders, flows and finite-difference residuals
# ---------------------------------------------------------------------------

def _chart_record(chart) -> dict:
    rep = chart.report
    return {"checks": {k: v for k, v in rep.items() if isinstance(v, float) and k != "tol"},
            "pass": rep["pass"], "tol": rep["tol"], "constants": rep.get("constants")}


def _chart_check(rec) -> list:
    worst = max(rec["checks"].values())
    if not rec["pass"] or not worst < rec["tol"]:
        return [f"chart residual {worst:.3g} against tol {rec['tol']:.3g}"]
    return []


def _chart_view(rec):
    return {"pass": rec["pass"] and max(rec["checks"].values()) < rec["tol"]}


def _chart_corrupt(rec):
    rec["checks"] = {k: 1.0 for k in rec["checks"]}


def _value_record(value) -> dict:
    value = getattr(value, "max_gamma_deviation", value)
    return {"value": float(value)}


def _gate_check(lo, hi, rec) -> list:
    v = rec["value"]
    if lo is not None and not v > lo:
        return [f"control deviation {v:.3g} not above {lo:g}"]
    if hi is not None and not v < hi:
        return [f"residual {v:.3g} not below {hi:g}"]
    return []


def _gate_view(lo, hi, rec):
    return {"pass": not _gate_check(lo, hi, rec)}


def _gate_corrupt(rec):
    rec["value"] = 0.5 if rec["value"] < 0.1 else 0.0


def _gate_op(kind, fn, lo=None, hi=None) -> Op:
    return Op(kind, fn, _value_record, partial(_gate_check, lo, hi),
              partial(_gate_view, lo, hi), _gate_corrupt)


def _nonflat(rng, family):
    while True:
        vals = {k: rng.randint(-2, 2) for k in KEYS}
        if not oracle.exact_flat(family, {k: gq(v) for k, v in vals.items()}):
            return vals


# Additive steps of the R2 low-discrepancy sequence (1/g and 1/g^2 for the
# plastic number g), one per coordinate of a chart centre.
R2_STEPS = (0.7548776662466927, 0.5698402909980532)


def _centres(rng, box) -> list[tuple]:
    """One centre per round in the box ((lo1, hi1), (lo2, hi2)): a seeded
    rotation of the R2 sequence.  Each centre is uniform in the box like an
    independent draw, and every prefix of rounds covers the box evenly.  Op
    costs grow with the distance from the basepoint (jet extension and
    chart integration step along the path), so with independent draws the
    throughput of a run varied by about 10 % between seeds."""
    offset = [rng.random() for _ in box]
    return [tuple(lo + (hi - lo) * ((u + r * a) % 1.0)
                  for (lo, hi), u, a in zip(box, offset, R2_STEPS))
            for r in range(CHART_ROUNDS)]


def charts(seed: int, workdir: Path) -> list[Op]:
    affkit = _affkit()
    from affkit.killing import Jet1, JetField, VectorField
    from affkit.numeric import Grid
    from affkit.scalars import Scalar
    parse = affkit.symexpr.parse
    coords, numeric = affkit.coords, affkit.numeric
    rng = random.Random(seed)
    sph, flat = affkit.surface.sphere(), affkit.surface.type_a({})
    triple = affkit.paperchecks.sphere_killing_triple()
    d1, d2 = VectorField(parse("1"), parse("0")), VectorField(parse("0"), parse("1"))
    radial = VectorField(parse("-x1"), parse("-x2"))
    control = VectorField(parse("x1^2"), parse("x2^2"))
    sphere_basis = affkit.killing.killing_jet_space(sph).basis
    centres = zip(_centres(rng, ((-0.3, 0.3), (-1.0, 1.0))),
                  _centres(rng, ((-0.5, 0.5), (-0.5, 0.5))),
                  _centres(rng, ((0.8, 1.3), (-0.3, 0.3))),
                  _centres(rng, ((-0.2, 0.2), (-1.0, 1.0))))
    ops = []
    for r, (cs, ca, cb, cg) in enumerate(centres):
        sa = affkit.surface.type_a(_nonflat(rng, "A"))
        sb = affkit.surface.type_b(_nonflat(rng, "B"))
        gs = Grid(cg, (0.2, 0.2), 5)
        ga = Grid(ca, (0.2, 0.2), 5)
        coeffs = [rng.choice((-1, 0, 1, 2)) for _ in sphere_basis]
        if not any(coeffs):
            coeffs[0] = 1
        jet = Jet1.from_vector([sum((b.as_vector()[i] * Scalar.of(c)
                                     for b, c in zip(sphere_basis, coeffs)), Scalar.of(0))
                                for i in range(6)])
        chart_ops = [
            ("chart.normalize", partial(lambda c: coords.normalize_chart(sph, d2, center=c, n=CHART_GRID), cs)),
            ("chart.commuting_flat",
             partial(lambda c: coords.commuting_chart(flat, d1, d2, center=c, n=CHART_GRID), ca)),
            ("chart.commuting",
             partial(lambda s, c: coords.commuting_chart(s, d1, d2, center=c, n=CHART_GRID), sa, ca)),
            ("chart.type_b",
             partial(lambda s, c: coords.type_b_chart(s, radial, d2, center=c, n=CHART_GRID), sb, cb)),
        ]
        for kind, fn in chart_ops:
            ops.append(Op(kind, fn, _chart_record, _chart_check, _chart_view, _chart_corrupt))
        flow = lambda s, f, g: numeric.flow_preserves_connection(s, f, 0.2, g)
        for f in triple:
            ops.append(_gate_op("flow.sphere", partial(flow, sph, f, gs), hi=1e-5))
        for f in (d1, d2):
            ops.append(_gate_op("flow.type_a", partial(flow, sa, f, ga), hi=1e-5))
        ops.append(_gate_op("flow.control", partial(flow, sa, control, ga), lo=1e-2))
        ops.append(_gate_op("fd.symbolic", partial(
            lambda f, g: numeric.fd_residuals(sph, f, g), triple[r % 3], gs), hi=1e-5))
        jg = Grid(gs.center, (0.2, 0.2), 3)
        ops.append(_gate_op("fd.jet_field", partial(
            lambda j, g: numeric.fd_residuals(sph, JetField(sph, j, step=1e-2), g), jet, jg),
            hi=1e-5))
    return ops


WORKLOADS = {"sweep": sweep, "curved": curved, "classify": classify, "charts": charts}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
