"""The four benchmark workloads.

Each workload builds its inputs in setup() from fixtures.derive_rng and
the run's seed, performs one operation per op() call (closed loop: the
next call starts when the previous one has returned; search performs a
cycle of campaigns and reports their trials), and judges every output in
check() with an oracle that needs no stored digest.  encode() gives the
bytes that the frozen digests of the default seed cover.

setup() receives `mp`, a namespace of freshly imported meshpoly
modules, and every call into the library goes through it, so the
tracer in spans.py sees each call.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
CLI_PROBE = BENCH_DIR / "cli_probe.py"
CLI_PACED = BENCH_DIR / "cli_paced.py"


class Workload:
    """What run.py needs from a workload.

    tail_pct: the percentile reported as op_tail_ms; the highest with at
    least 10 samples beyond it in a 15 s run at the commit that added
    the benchmark, kept fixed so that a faster change is compared on the
    same percentile.  digest_step, digest_cap: op() calls per frozen
    digest, and how many calls freeze.py covers when the workload has no
    natural end (setup's n_ops is None).  trace_ops: the fixed op() call
    count of a traced run.  self_paced: op() samples the host's speed
    itself, and scale() gives the factor for its times (see pace.py);
    otherwise run.py samples it between op() calls, and an op() call may
    sample it between its steps with st.pacer.tick() (st.pacer is the
    pace.Pacer of a timed phase, else None).
    """

    self_paced = False

    def op_spans(self, out, span) -> list:
        """(start, end) of the reported operations one op() call performed,
        given the call's own (start, end)."""
        return [span]

    def scale(self, out) -> float:
        return 1.0

    def peak_rss_mb(self, st) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def bytes_out(self, out) -> int:
        """Bytes of JSONL and certificate text the operation produced."""
        return 0


class Membership(Workload):
    """class_membership decisions on the ROADMAP corpus.

    Why: the intpoly kernel (Sturm chains, isolation, rational probing)
    and interlace.proper_position do nearly all the work; operators,
    serialize and harness are bypassed (images are built in setup).
    Measured on the whole corpus at seed 7: 71% members, and only 8% of
    rational probes find a root (1,761 of 22,536), so probing is mostly
    wasted here.  The corpus takes 20-35 s on a 2-vCPU x86-64 VM, more
    than one run, so a run decides a prefix of a seeded shuffle of it,
    which keeps every prefix representative.

    Frozen: 20 preserver symbols from criterion 2's recipe and stream
    (monic, roots drawn in [0, 6]) but of degree 1 + k % 4, 10 random
    non-preserver symbols of 2 + k % 4 coefficients, and 60 fixtures in
    HP>=1 of degree 1 + t % 8.  Every nonzero image is decided against
    HP>=1, HP+>=1 and HP>=1/2: 5,400 decisions.  Degrees are cycled
    rather than drawn because drawn degrees moved the corpus cost from
    seed to seed: drawn fixture degrees by up to 30%, and drawn symbol
    degrees spread the decision rate of seeds 1-8 by 0.27 of its median
    (quartile distance; 0.10 with cycled degrees, 700 decisions per seed
    timed in one process).  Never resize or re-seed the corpus to
    flatter a change.
    """

    name = "membership"
    tail_pct = 99
    digest_step = 50
    digest_cap = None  # the whole corpus
    trace_ops = 900
    check_tol = Fraction(1, 1024)

    def setup(self, mp, seed, workdir):
        # criterion 2's symbol recipe and stream with cycled degrees,
        # then 10 non-preservers
        rng = mp.fixtures.derive_rng(seed, "c2-symbols")
        rand = mp.fixtures.rand_fraction
        Polynomial = mp.poly.Polynomial
        symbols = []
        for k in range(20):
            deg = 1 + k % 4
            symbols.append(Polynomial.from_roots(
                sorted(rand(rng, 0, 6) for _ in range(deg))))
        rng = mp.fixtures.derive_rng(seed, "bench-membership", "symbols")
        while len(symbols) < 30:
            coeffs = [rand(rng, -3, 3) for _ in range(2 + len(symbols) % 4)]
            if coeffs[-1] == 0:
                continue
            Q = Polynomial(coeffs)
            prof = mp.roots.root_profile(Q)
            if not (prof.is_hyperbolic and prof.all_roots_nonnegative):
                symbols.append(Q)
        operators = [mp.operators.from_symbol(Q) for Q in symbols]
        ClassSpec = mp.interlace.ClassSpec
        hp1 = ClassSpec.hp_ge(1)
        images = []
        for t in range(60):
            frng = mp.fixtures.derive_rng(seed, "bench-membership", "fixture", t)
            p = mp.fixtures.gen_fixture(hp1, 1 + t % 8, frng)
            images.extend(T.apply(p) for T in operators)
        images = [img for img in images if not img.is_zero]
        decisions = [(k, s) for k in range(len(images)) for s in range(3)]
        mp.fixtures.derive_rng(seed, "bench-membership", "order").shuffle(decisions)
        specs = (hp1, ClassSpec.hp_plus_ge(1), ClassSpec.hp_ge(Fraction(1, 2)))
        return SimpleNamespace(mp=mp, images=images, decisions=decisions,
                               specs=specs, settled={}, n_ops=len(decisions))

    def op(self, st, i):
        k, s = st.decisions[i]
        return st.mp.interlace.class_membership(st.images[k], st.specs[s])

    def encode(self, out) -> bytes:
        return b"1" if out else b"0"

    def corrupt(self, out):
        return not out

    def _settled(self, st, k, s):
        """The decision as mesh_numeric's enclosure settles it, else None."""
        roots = st.mp.roots
        if k not in st.settled:
            img = st.images[k]
            try:
                rep = roots.mesh_numeric(img, self.check_tol)
                st.settled[k] = (rep.mesh_lower, rep.mesh_upper)
            except roots.NonHyperbolicInput:
                st.settled[k] = None
        bounds = st.settled[k]
        if bounds is None:
            return False
        lower, upper = bounds
        alpha = st.specs[s].mesh_bound
        if upper < alpha:
            return False
        if lower < alpha:
            return None
        if not st.specs[s].require_nonneg_roots:
            return True
        # mesh >= 1 makes the image squarefree, so the Sturm count is exact
        img = st.images[k]
        negative = roots.count_real_roots(img, None, 0) - (img.evaluate(0) == 0)
        return negative == 0

    def check(self, st, i, out) -> bool:
        k, s = st.decisions[i]
        expected = self._settled(st, k, s)
        if expected is not None and expected != out:
            return False
        img = st.images[k]
        if st.specs[s].require_nonneg_roots and img.degree == 2:
            # A x(x-1) - 2Bx + C, closed form for A > 0, B >= 0, C >= 0
            c0, c1, c2 = img.monomial_coeffs()
            if c2 < 0:
                c0, c1, c2 = -c0, -c1, -c2
            A, B, C = c2, -(c1 + c2) / 2, c0
            if B >= 0 and C >= 0 and st.mp.interlace.quadratic_hp1plus(A, B, C) != out:
                return False
        return True


class Monotone(Workload):
    """verify.check_mesh_monotone on criterion 4's and criterion 5's inputs.

    Why: the roots layer is used differently from membership.
    mesh_numeric needs exact rational roots, so rational probes are
    consumed rather than wasted (79% of probes hit in the traced run at
    seed 7), and is_hyperbolic takes the Sturm-count path with no
    isolation.  A change that defers or drops probing must show no loss
    here.  Even operations are criterion 4 trials: p - lam p(x - alpha)
    on a fixture in HP>=alpha.  Odd operations are criterion 5 checks:
    p - lam p' on a hyperbolic fixture, four lam per fixture as in the
    suite.  Both use the suite's generator streams and recipes, but the
    fixture degree is cycled through 0-6 instead of drawn: the cost of
    an operation is set mostly by its kind and degree (0.1 ms at degree
    0, 19 ms for criterion 4 at degree 6), and drawn degrees moved the
    mix enough between seeds that op_p50_ms spread by 0.15 of its median
    over seeds 21-25 (quartile distance, 15 s runs).  Each operation
    generates its fixture (fixtures.gen_fixture, with its class
    self-check).
    """

    name = "monotone"
    tail_pct = 99
    digest_step = 100
    digest_cap = 16000
    trace_ops = 800
    combos = [(a, lam) for a in (Fraction(1, 2), Fraction(1), Fraction(2))
              for lam in (Fraction(1, 3), Fraction(1), Fraction(5, 2))]
    lams = (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(5))

    def setup(self, mp, seed, workdir):
        riesz = [(alpha, mp.operators.make_standard("riesz", lam=lam, alpha=alpha))
                 for alpha, lam in self.combos]
        return SimpleNamespace(mp=mp, seed=seed, riesz=riesz, n_ops=None)

    def op(self, st, i):
        mp = st.mp
        ClassSpec = mp.interlace.ClassSpec
        t = i // 2
        if i % 2 == 0:
            rng = mp.fixtures.derive_rng(st.seed, "c4-mono", t)
            alpha, T = st.riesz[t % len(st.riesz)]
            p = mp.fixtures.gen_fixture(ClassSpec.hp_ge(alpha), t % 7, rng)
            verdict = mp.verify.check_mesh_monotone(T, p, alpha=alpha)
        else:
            k = t // len(self.lams)
            rng = mp.fixtures.derive_rng(st.seed, "c5", k)
            p = mp.fixtures.gen_fixture(ClassSpec.hyperbolic(), k % 7, rng,
                                        jitter=Fraction(3, 2))
            verdict = mp.verify.check_mesh_monotone(
                self.lams[t % len(self.lams)], p, variant="derivative")
        return p, verdict

    def encode(self, out) -> bytes:
        p, verdict = out
        details = {k: str(v) for k, v in verdict.details.items()}
        return json.dumps([repr(p), verdict.status, details],
                          sort_keys=True).encode()

    def corrupt(self, out):
        p, verdict = out
        return p, SimpleNamespace(status="fails", details=verdict.details)

    def check(self, st, i, out) -> bool:
        # the theorems guarantee the claim.  The baseline is not checked
        # here: probing gives up on some rational roots (2 of the first
        # 16,000 inputs at seed 7 get a "lower-bound" baseline), which
        # try_rational documents as harmless; the digests freeze it.
        return out[1].status == "holds"


class Search(Workload):
    """harness.run_search campaigns configured as in criterion 12, whose
    output is written to disk, read back and replayed.

    Why: the only in-process workload that produces files.  The cost sits
    in fixture self-checks on rational-root inputs, operators
    (bullet_product, Pochhammer diagonal_apply), verify, serialize and
    harness; interlace runs on small images (92% of them members).  Probes
    mostly hit (81% in the traced run at seed 7): fixtures have rational
    roots.

    One op() call is a cycle of five campaigns, one of each kind in kinds,
    each SearchConfig(kind, seed=s, trials=100, max_degree=4): criterion
    12's configuration at scale 0.1 (`meshpoly suite --trials 50`),
    applied to all five kinds instead of its two.  At 100 trials nice
    keeps its smallest inner sample (max(10, trials // 25)), which keeps
    a cycle near 1.6 s on a 2-vCPU x86-64 VM; at criterion 12's full 1000
    trials one nice campaign alone takes about 28 s.  s is the run's seed
    in cycle 0, so the first finite-degree and bullet campaigns at seed 7
    are the suite's own, and is drawn from the seed in later cycles.
    remark2 and lemma1 stop at their first witness, which they always
    find: each cycle writes and replays at least three certificates.

    The reported operation is a search trial, one JSONL record.  A
    trial's latency runs from one trial start to the next; the last one
    of a campaign also carries the campaign's serialization, file writes
    and replays.  Trial starts are the harness's derive_rng calls (one per
    finite-degree, bullet and nice trial), which setup() timestamps: the
    only probe in an untraced run, about 1 us against trials of 1-10 ms.
    A timed run also samples the host's speed there (st.pacer.tick()),
    on a clock that stops while it samples, so every trial is scaled by
    samples taken within milliseconds of it rather than around a whole
    cycle of about 1.5 s.
    remark2 and lemma1 draw no trial stream in the harness, so their
    campaign time is split evenly over their one or two records.
    """

    name = "search"
    tail_pct = 99
    digest_step = 1
    digest_cap = 32
    trace_ops = 3
    kinds = ("finite-degree", "bullet", "nice", "remark2", "lemma1")
    trials = 100
    always_certify = ("remark2", "lemma1")

    def setup(self, mp, seed, workdir):
        st = SimpleNamespace(mp=mp, seed=seed, workdir=Path(workdir),
                             starts=[], n_ops=None, pacer=None)
        derive_rng = mp.harness.derive_rng

        def stamped(*key):
            # between two trials: sample the host's speed here
            if st.pacer is not None:
                st.pacer.tick()
            st.starts.append(_clock(st)())
            return derive_rng(*key)

        mp.harness.derive_rng = stamped
        return st

    def _configs(self, st, i):
        mp = st.mp
        seed = st.seed
        if i:
            seed = mp.fixtures.derive_rng(st.seed, "bench-search", i).randrange(2 ** 31)
        return [mp.harness.SearchConfig(kind, seed=seed, trials=self.trials,
                                        max_degree=4) for kind in self.kinds]

    def _campaign(self, st, cfg):
        report = st.mp.harness.run_search(cfg)
        return report.jsonl(), [c.to_json() for c in report.certificates]

    def op(self, st, i):
        clock = _clock(st)
        out = st.workdir / "search.jsonl"
        campaigns = []
        for cfg in self._configs(st, i):
            start = clock()
            st.starts.clear()
            jsonl, certs = self._campaign(st, cfg)
            starts = st.starts[1:]
            out.write_text(jsonl, encoding="utf-8")
            replays = []
            for k, text in enumerate(certs):
                path = Path(f"{out}.cert{k}.json")
                path.write_text(text + "\n", encoding="utf-8")
                obj = json.loads(path.read_text(encoding="utf-8"))
                replays.append(st.mp.harness.replay_certificate(obj)["reproduced"])
            end = clock()
            if starts:
                marks = [start, *starts, end]
            else:
                records = jsonl.count("\n") - 1  # the last line is the summary
                marks = [start + (end - start) * k / records
                         for k in range(records + 1)]
            campaigns.append((jsonl, certs, replays, list(zip(marks, marks[1:]))))
        return campaigns

    def op_spans(self, out, span):
        return [s for *_, trials in out for s in trials]

    def encode(self, out) -> bytes:
        return "\0".join(text for jsonl, certs, replays, _ in out
                          for text in (jsonl, *certs, repr(replays))).encode()

    def corrupt(self, out):
        (jsonl, *rest), *others = out
        return [(jsonl + " ", *rest), *others]

    def check(self, st, i, out) -> bool:
        # every certificate replays, the searches that always find a
        # witness did, each campaign holds its trials, and a second run
        # is byte-identical
        for cfg, (jsonl, certs, replays, trials) in zip(self._configs(st, i), out):
            if not all(replays):
                return False
            if cfg.kind in self.always_certify and not certs:
                return False
            if cfg.kind not in self.always_certify and len(trials) != cfg.trials:
                return False
            if self._campaign(st, cfg) != (jsonl, certs):
                return False
        return True

    def bytes_out(self, out) -> int:
        return sum(len(jsonl.encode()) + sum(len(c.encode()) for c in certs)
                   for jsonl, certs, _, _ in out)


CLI_SUBCOMMANDS = ("mesh", "apply", "convert", "verify-herpou", "verify-dms",
                   "verify-riesz", "search", "replay")


class Cli(Workload):
    """One-shot `python -m meshpoly` calls, one subprocess at a time.

    Why: the only workload for the cli layer and for import cost, about
    100 ms of a 200 ms call; every other workload imports once, outside
    the timed part.  Inputs are tiny: degree 3-5 fixtures with rational
    roots.  Each cycle calls every subcommand once, in CLI_SUBCOMMANDS
    order; `replay` reads the certificate the cycle's `search` wrote.
    Expected exit codes follow from the theorems: a symbol with a
    negative root is not a preserver (1), mixed-sign values are refuted
    (1), a linear rule with nonnegative coefficients holds (0), riesz
    maps keep the mesh (0), remark2 and lemma1 always find a
    certificate (1), which replays (0).  76% of the probes in the
    subprocesses hit (traced run, seed 7).

    Untraced calls run through cli_paced.py, which samples the host's
    speed in the subprocess itself, before and after the call; the
    latency of a call is its wall time less those samples.  peak_rss_mb
    is the largest peak a call reports for itself: a child's ru_maxrss
    would include the pages of this process, which it inherits when it
    is forked.
    """

    name = "cli"
    tail_pct = 80
    digest_step = 8
    digest_cap = 512
    trace_ops = 24
    cycles = 64
    self_paced = True

    def setup(self, mp, seed, workdir):
        workdir = Path(workdir)
        ser = mp.serialize
        Polynomial = mp.poly.Polynomial
        rand = mp.fixtures.rand_fraction
        calls = []
        for c in range(self.cycles):
            rng = mp.fixtures.derive_rng(seed, "bench-cli", c)
            cdir = workdir / f"c{c}"
            cdir.mkdir(parents=True, exist_ok=True)
            alpha = (Fraction(1, 2), Fraction(1), Fraction(2))[c % 3]
            lam = (Fraction(1, 3), Fraction(1), Fraction(5, 2))[(c // 3) % 3]
            fixture = mp.fixtures.gen_rooted(
                mp.interlace.ClassSpec.hp_ge(alpha), 3 + c % 3, rng)
            T = mp.operators.make_standard("riesz", lam=lam, alpha=alpha)
            (cdir / "p.json").write_text(ser.dumps(fixture.poly), encoding="utf-8")
            (cdir / "op.json").write_text(ser.dumps(T), encoding="utf-8")
            symbol_roots = [rand(rng, 0, 4) for _ in range(1 + c % 2)]
            if c % 2:
                symbol_roots[0] = -rand(rng, Fraction(1, 2), 4)
            symbol = Polynomial.from_roots(symbol_roots).coeffs
            if c % 2:
                values = [rand(rng, 1, 3) for _ in range(5)]
                values[rng.randrange(1, 5)] *= -1
                dms = [f"--values={_csv(values)}"]
            else:
                dms = [f"--phi-coeffs={_csv([rand(rng, 1, 3), rand(rng, 0, 3)])}",
                       "--trials", "4", "--max-degree", "4"]
            riesz = [f"--lam={lam}", f"--alpha={alpha}"]
            if c % 2:
                riesz = ["--derivative", f"--lam={rand(rng, -3, 3)}"]
            kind = ("remark2", "lemma1")[c % 2]
            search = ["search", kind, "--trials", "4", "--max-degree", "4",
                      "--seed", str(rng.randrange(2 ** 31)),
                      "--rho", str(rand(rng, Fraction(1, 8), Fraction(7, 8))),
                      "--out", f"c{c}/run.jsonl"]
            calls.append([(args, rc, fixture, T) for args, rc in (
                (["mesh", f"c{c}/p.json"], 0),
                (["apply", f"c{c}/p.json", "--op", f"c{c}/op.json"], 0),
                (["convert", f"c{c}/p.json", "--to", "pochhammer"], 0),
                (["verify", "herpou", f"--coeffs={_csv(symbol)}"], c % 2),
                (["verify", "dms", *dms], c % 2),
                (["verify", "riesz", f"c{c}/p.json", *riesz], 0),
                (search, 1),
                (["replay", f"c{c}/run.jsonl.cert0.json"], 0),
            )])
        src = str(BENCH_DIR.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        return SimpleNamespace(mp=mp, workdir=workdir, calls=calls, env=env,
                               n_ops=len(calls) * len(CLI_SUBCOMMANDS),
                               tracer=None, import_s=[], peak_rss_kb=0,
                               main_self_s={s: [] for s in CLI_SUBCOMMANDS})

    def op(self, st, i):
        args = st.calls[i // len(CLI_SUBCOMMANDS)][i % len(CLI_SUBCOMMANDS)][0]
        if args[0] == "search":
            # an earlier pass's output must not pass this call's check
            for old in (st.workdir / args[-1]).parent.glob("run.jsonl*"):
                old.unlink()
        if st.tracer is None:
            sidecar = st.workdir / "pace.json"
            cmd = [sys.executable, str(CLI_PACED), str(sidecar), *args]
        else:
            sidecar = st.workdir / "trace.json"
            cmd = [sys.executable, str(CLI_PROBE), str(sidecar), *args]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=st.workdir, env=st.env,
                              capture_output=True, timeout=120)
        wall = time.perf_counter() - start
        sample = json.loads(sidecar.read_text(encoding="utf-8"))
        sidecar.unlink()
        if st.tracer is None:
            timing = (wall - sample["ref_s"], sample["scale"])
            st.peak_rss_kb = max(st.peak_rss_kb, sample["peak_rss_kb"])
        else:
            timing = None
            st.tracer.merge(sample["trace"])
            st.import_s.append(sample["import_s"])
            st.main_self_s[CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)]].append(
                sample["trace"]["self_s"].get("cli.main", 0.0))
        return proc.returncode, proc.stdout, timing

    def op_spans(self, out, span):
        return [span if out[2] is None else (0.0, out[2][0])]

    def scale(self, out) -> float:
        return 1.0 if out[2] is None else out[2][1]

    def peak_rss_mb(self, st) -> float:
        return st.peak_rss_kb / 1024

    def encode(self, out) -> bytes:
        rc, stdout, _ = out
        return b"%d\0" % rc + stdout

    def corrupt(self, out):
        rc, stdout, timing = out
        return rc + 1, stdout, timing

    def check(self, st, i, out) -> bool:
        args, expected_rc, fixture, T = (
            st.calls[i // len(CLI_SUBCOMMANDS)][i % len(CLI_SUBCOMMANDS)])
        rc, stdout, _ = out
        if rc != expected_rc:
            return False
        sub = CLI_SUBCOMMANDS[i % len(CLI_SUBCOMMANDS)]
        ser = st.mp.serialize
        if sub == "search":
            # op() removed the previous files, so these are this call's
            out = st.workdir / args[-1]
            summary = json.loads(out.read_text(encoding="utf-8")
                                 .splitlines()[-1])["summary"]
            cert = json.loads(Path(f"{out}.cert0.json").read_text(encoding="utf-8"))
            return (stdout == b"" and summary["kind"] == args[1]
                    and summary["certificates"] >= 1
                    and cert["certificate"]["kind"] == args[1])
        payload = json.loads(stdout)
        if sub == "mesh":
            return payload["mesh"]["exact"] == ser.rational_to_str(fixture.exact_mesh)
        if sub == "apply":
            return ser.poly_from_obj(payload) == T.apply(fixture.poly)
        if sub == "convert":
            image = ser.poly_from_obj(payload)
            return image.basis == "pochhammer" and image == fixture.poly
        if sub == "replay":
            return payload["reproduced"] is True
        # verify subcommands: exit 0 means holds, 1 means fails
        return payload["status"] == ("fails" if rc else "holds")


def _clock(st):
    return time.perf_counter if st.pacer is None else st.pacer.now


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


WORKLOADS = {w.name: w for w in (Membership(), Monotone(), Search(), Cli())}
