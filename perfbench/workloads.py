"""The four benchmark workloads.

Each workload turns the run's seed into a fixed list of operations, one
pass.  The runner repeats whole passes, so every run measures the same
mix however many passes fit.  An operation has a timed ``run``, an
untimed ``collect`` that turns its output into a comparable value, and
an untimed ``check`` that compares that value with the oracles.

Operations look circsafe functions up on their modules at call time, so
the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import gen
import oracles

FUEL = str(10**9)


class CheckFailed(Exception):
    """An output differs from its oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], None]
    collect: Callable[[object], object] = lambda out: out
    steps_key: Optional[str] = None  # report eval_proof steps of this operation


@dataclass
class Ctx:
    root: Path
    seed: int
    tmp: Path
    mods: dict = field(default_factory=dict)

    def rng(self, stream: str) -> random.Random:
        return random.Random(f"{stream}:{self.seed}")

    def __getattr__(self, name: str):
        try:
            return self.mods[name]
        except KeyError:
            raise AttributeError(name) from None


def load(root: Path, seed: int, tmp: Path) -> Ctx:
    mods = {n: importlib.import_module(f"circsafe.{n}") for n in (
        "formats", "kernel", "checker", "transform", "compilealg", "translate", "interp", "bounds", "cli")}
    src = (root / "src").resolve()
    if not Path(mods["cli"].__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"circsafe imported from {mods['cli'].__file__}, not from {src}")
    return Ctx(root, seed, tmp, mods)


def cli_call(ctx: Ctx, *argv: str) -> tuple[int, str]:
    """Run ``circsafe`` in process; exceptions escaping main propagate."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = ctx.cli.main(list(argv))
    return rc, out.getvalue()


def _read_and_remove(path: Path) -> Optional[str]:
    if not path.exists():
        return None
    text = path.read_text(encoding="utf-8")
    path.unlink()
    return text


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# bound-sampling


# verify_bound draws total normal lengths 0..16; the exponential terms
# double in cost per bit, and lengths 15 and 16 would make a pass four
# times longer, leaving too few passes for per-operation medians.
BOUND_LENGTHS = range(15)


def bound_sampling(ctx: Ctx):
    """verify_bound(td, samples=1, seed=s) on each corpus term, one seed
    per total normal length in BOUND_LENGTHS: 180 operations a pass."""
    doc = ctx.formats.parse_terms((ctx.root / "corpus" / "terms.term").read_text(encoding="utf-8"))
    rng = ctx.rng("bound-sampling")
    terms = [doc.terms[name] for name in sorted(doc.terms)]
    seeds = {td.name: gen.stratified_seeds(rng, td.normals, td.safes, BOUND_LENGTHS) for td in terms}
    ops = [Op(f"{td.name}/n{n}", lambda td=td, s=s: ctx.bounds.verify_bound(td, samples=1, seed=s),
              lambda out, td=td, s=s: _check_bound(ctx, td, s, out),
              lambda r: (r.samples, r.max_slack, len(r.violations)))
           for n in BOUND_LENGTHS for td in terms for s in [seeds[td.name][n]]]
    return ops, ops[:len(terms)]  # round-robin over the terms; warm up on length 0


def _check_bound(ctx: Ctx, td, seed: int, out) -> None:
    samples, max_slack, violations = out
    xs, ys = gen.bound_sample(seed, td.normals, td.safes)
    value = oracles.TERM_ORACLES[td.name](xs, ys)
    pair = ctx.bounds.synthesize_bound(td.body)
    n = sum(x.bit_length() for x in xs)
    bound = ctx.bounds.beval(pair.e, n) + max([y.bit_length() for y in ys], default=0)
    expect(samples == 1 and violations == 0, f"{td.name} seed {seed}: {samples} samples, {violations} violations")
    expect(max_slack == bound - value.bit_length(), f"{td.name} seed {seed}: slack {max_slack}, oracle {bound - value.bit_length()}")


# ---------------------------------------------------------------------------
# proof-graphs

# Node counts, log-spread.  translate overflows Python's recursion limit
# at about 1000 nodes, so chain and loop go past it; nest stops below,
# since its quadratic passes cost 2 s a document at 800 nodes.  With the
# ten corpus proofs, the median operation falls among the 24- to 50-node
# documents, two ranks below the jump to the 100-node ones, so p50 does
# not leap across that jump when one cheaper operation runs slow.
PROOF_SIZES = {
    "chain": (12, 25, 50, 100, 200, 400, 800, 1600),
    "loop": (12, 25, 50, 100, 200, 400, 800, 1600),
    "nest": (12, 24, 51, 99, 201, 399),
}


def proof_graphs(ctx: Ctx):
    """check --system cnb, cyclenf and translate on one proof document:
    the ten corpus proofs and the generated chain, loop and nest sizes."""
    rng = ctx.rng("proof-graphs")
    docs = []
    for path in sorted((ctx.root / "corpus").glob("*.proof")):
        docs.append((path, path.stem, oracles.PROOF_CLASSES[path.stem], None))
    for family, sizes in PROOF_SIZES.items():
        for nodes in sizes:
            d = gen.proof_family(family, nodes, rng)
            g = ctx.formats.parse_proof(d.text)
            errors = ctx.kernel.validate_graph(g)
            expect(not errors and len(g.nodes) == d.nodes, f"generator {d.name}: {errors[:1]}, {len(g.nodes)} nodes")
            expect(ctx.checker.classify(g).cls == d.cls, f"generator {d.name}: not {d.cls}")
            path = ctx.tmp / f"{d.name}.proof"
            path.write_text(d.text, encoding="utf-8")
            docs.append((path, d.name, d.cls, d))
    ops = [_proof_op(ctx, *doc) for doc in docs]
    smallest = {d.family: op for op, (_, _, _, d) in reversed(list(zip(ops, docs))) if d}
    warmup = [op for op, doc in zip(ops, docs) if doc[3] is None] + list(smallest.values())
    return ops, warmup


def _proof_op(ctx: Ctx, path: Path, name: str, cls: str, doc) -> Op:
    cnf, pp = ctx.tmp / f"{name}.cnf.proof", ctx.tmp / f"{name}.pp"

    def run():
        return (cli_call(ctx, "check", str(path), "--system", "cnb"),
                cli_call(ctx, "cyclenf", str(path), "-o", str(cnf))[0],
                cli_call(ctx, "translate", str(path), "-o", str(pp))[0])

    def collect(out):
        return out + (_read_and_remove(cnf), _read_and_remove(pp))

    def check(out):
        (rc, text), rc_cnf, rc_tr, cnf_text, pp_text = out
        accepted = cls in ("CB", "CNB")
        expect(rc == (0 if accepted else 1) and f"class={cls}" in text, f"{name}: check said {rc} {text!r}")
        expect(rc_cnf == 0 and cnf_text is not None, f"{name}: cyclenf exit {rc_cnf}")
        original = ctx.formats.parse_proof(path.read_text(encoding="utf-8"))
        folded = _splice_dis(ctx, ctx.formats.parse_proof(cnf_text))
        inputs = _proof_inputs(name, original, doc)
        for xs, ys in inputs:
            want = _proof_value(ctx, name, original, doc, xs, ys)
            got = ctx.interp.eval_proof(folded, folded.root, xs, ys, ctx.interp.EvalConfig(fuel=10**8))
            expect(got == want, f"{name}: cycle normal form computes {got} at {xs};{ys}, oracle {want}")
        if not accepted:
            expect(rc_tr == 1 and pp_text is None, f"{name}: translate of an unaccepted proof exit {rc_tr}")
            return
        expect(rc_tr == 0 and pp_text is not None, f"{name}: translate exit {rc_tr}")
        (prog,) = ctx.formats.parse_terms(pp_text).programs.values()
        strict = ctx.interp.EvalConfig(fuel=10**8, guard_mode="strict")
        for xs, ys in inputs:
            want = _proof_value(ctx, name, original, doc, xs, ys)
            got = ctx.interp.eval_pp(prog, "main", None, xs, ys, strict)
            expect(got == want, f"{name}: translated program computes {got} at {xs};{ys}, oracle {want}")

    return Op(name, run, check, collect)


def _splice_dis(ctx: Ctx, g):
    """The folded cycle normal form with its dis markers skipped."""
    kernel = ctx.kernel
    dis = {nid: n.premises[0] for nid, n in g.nodes.items() if n.rule.kind is kernel.RuleKind.DIS}
    nodes = {nid: kernel.Node(n.rule, n.sequent, tuple(dis.get(p, p) for p in n.premises))
             for nid, n in g.nodes.items() if nid not in dis}
    return kernel.ProofGraph(g.name, dis.get(g.root, g.root), nodes)


def _proof_inputs(name: str, g, doc) -> list[tuple[list[int], list[int]]]:
    if name == "I":
        return []  # diverges on every input
    seq = g.nodes[g.root].sequent
    rng = random.Random(f"check:{name}")
    if doc is not None and doc.family == "nest":
        xs_choices = [0, 1] + ([2, 3] if doc.size <= 40 else [])
    elif doc is None and name not in oracles.PROOF_ORACLES:
        xs_choices = [0, 1, 2, 3]
    else:
        xs_choices = [0, 1, 2, 5] + [rng.getrandbits(6) for _ in range(3)]
    out = []
    for x in xs_choices:
        xs = [x] + [rng.getrandbits(4) for _ in range(seq.boxed - 1)] if seq.boxed else []
        out.append((xs, [rng.getrandbits(8) for _ in range(seq.plain)]))
    return out


def _proof_value(ctx: Ctx, name: str, g, doc, xs, ys) -> int:
    if doc is None:
        if name in oracles.PROOF_ORACLES:
            return oracles.PROOF_ORACLES[name](xs, ys)
        # no oracle for the unaccepted corpus proofs: the folded form
        # must agree with the evaluator on the original graph
        return ctx.interp.eval_proof(g, g.root, xs, ys, ctx.interp.EvalConfig(fuel=10**8))
    if doc.family == "chain":
        return oracles.chain_value(doc.params[0], ys[0])
    if doc.family == "loop":
        return oracles.loop_value(*doc.params, xs[0], ys[0])
    return oracles.nest_value(doc.size, doc.params[0], xs[0].bit_length(), ys[0])


# ---------------------------------------------------------------------------
# compile-run

DEEP_SIZES = (1, 2, 4, 8, 16, 32, 64, 128)
LOOPS_SIZES = (1, 2, 3, 4, 6, 8, 12, 16)
CB_BITS, EXP_BITS = 64, 8


def compile_run(ctx: Ctx):
    """compile, check, eval, translate and eval-pp --guard-mode strict
    through cli.main on one term and one input: the twelve corpus terms
    and the generated deep and loops sizes."""
    rng = ctx.rng("compile-run")
    corpus = ctx.root / "corpus" / "terms.term"
    terms = ctx.formats.parse_terms(corpus.read_text(encoding="utf-8")).terms
    items = [(corpus, name, terms[name].normals, terms[name].safes, oracles.TERM_ORACLES[name],
              "CNB" if name in oracles.NESTED_TERMS else "CB", EXP_BITS if name in oracles.EXPONENTIAL_TERMS else CB_BITS)
             for name in sorted(terms)]
    for k in DEEP_SIZES:
        d = gen.deep(k, rng)
        items.append((d, d.name, 0, 1, lambda xs, ys, d=d: oracles.deep_value(d.params[0], ys[0]), "CB", CB_BITS))
    for k in LOOPS_SIZES:
        d = gen.loops(k, rng)
        items.append((d, d.name, 1, 1, lambda xs, ys, d=d: oracles.loops_value(d.params[0], xs[0], ys[0]), "CB", CB_BITS))
    ops, warmup = [], []
    for src, name, m, n, oracle, cls, bits in items:
        if isinstance(src, gen.Doc):
            path = ctx.tmp / f"{name}.term"
            path.write_text(src.text, encoding="utf-8")
            td = ctx.formats.parse_terms(src.text).terms[name]
            expect((td.normals, td.safes) == (m, n), f"generator {name}: arities {td.normals};{td.safes}")
            src = path
        xs = [gen.random_value(rng, bits) for _ in range(m)]
        ys = [gen.random_value(rng, 16 if bits == CB_BITS else bits) for _ in range(n)]
        ops.append(_compile_op(ctx, src, name, xs, ys, oracle(xs, ys), cls))
        if name in ("succ1", "ex", "deep1", "loops1"):
            warmup.append(ops[-1])
    return ops, warmup


def _compile_op(ctx: Ctx, doc: Path, name: str, xs, ys, want: int, cls: str) -> Op:
    proof, pp = ctx.tmp / f"{name}.c.proof", ctx.tmp / f"{name}.c.pp"
    ns, ss = _csv(xs), _csv(ys)

    def run():
        return (cli_call(ctx, "compile", str(doc), "--name", name, "-o", str(proof)),
                cli_call(ctx, "check", str(proof), "--system", "cnb"),
                cli_call(ctx, "eval", str(proof), "--normals", ns, "--safes", ss, "--fuel", FUEL),
                cli_call(ctx, "translate", str(proof), "-o", str(pp)),
                cli_call(ctx, "eval-pp", str(pp), "--normals", ns, "--safes", ss, "--guard-mode", "strict", "--fuel", FUEL))

    def check(out):
        codes = [rc for rc, _ in out]
        expect(codes == [0] * 5, f"{name}: exit codes {codes}: {out[4][1]!r}")
        expect(f"class={cls}" in out[1][1], f"{name}: check said {out[1][1]!r}, want {cls}")
        expect(out[2][1].strip() == str(want), f"{name}: eval printed {out[2][1].strip()!r}, oracle {want}")
        expect(out[4][1].strip() == str(want), f"{name}: eval-pp printed {out[4][1].strip()!r}, oracle {want}")

    return Op(name, run, check)


# ---------------------------------------------------------------------------
# long-inputs

LONG_BITS = (256, 512, 1024, 2048, 4096)
PP_BITS = (32, 64)  # eval_pp's Python recursion gives out between 64 and 256 bits
TERM_BITS = (256, 512)  # and eval_term's at about 1000 bits
GROWTH_BITS = (4, 8, 12)  # CNB proof E: steps grow as 2^bits
# eval_proof step counts reported per (proof, bit length), worst-case inputs
STEPS_KEYS = [f"{p}.{b}" for p in "SCPL" for b in LONG_BITS] + [f"E.{b}" for b in GROWTH_BITS]


def long_inputs(ctx: Ctx):
    """eval_proof, eval_pp on the translated program and eval_term on the
    CB corpus proofs and base-algebra terms, worst-case and random
    inputs; E at a few short lengths for CB-versus-CNB step growth."""
    rng = ctx.rng("long-inputs")
    proofs = {n: ctx.formats.parse_proof((ctx.root / "corpus" / f"{n}.proof").read_text(encoding="utf-8"))
              for n in ("S", "C", "P", "L", "E")}
    progs = {n: ctx.translate.translate(g) for n, g in proofs.items()}
    terms = ctx.formats.parse_terms((ctx.root / "corpus" / "terms.term").read_text(encoding="utf-8")).terms

    def inputs(m, n, bits, kind):
        value = (lambda: gen.ones(bits)) if kind == "ones" else (lambda: gen.random_value(rng, bits))
        return [value() for _ in range(m)], [value() for _ in range(n)]

    ops = []

    def add(evaluator, name, bits, kind):
        if evaluator == "term":
            td = terms[name]
            xs, ys = inputs(td.normals, td.safes, bits, kind)
            run = lambda: ctx.interp.eval_term(td.body, None, xs, ys)
            want = oracles.TERM_ORACLES[name](xs, ys)
        else:
            g = proofs[name]
            seq = g.nodes[g.root].sequent
            xs, ys = inputs(seq.boxed, seq.plain, bits, kind)
            if evaluator == "proof":
                run = lambda: ctx.interp.eval_proof(g, g.root, xs, ys)
            else:
                run = lambda: ctx.interp.eval_pp(progs[name], "main", None, xs, ys)
            want = oracles.PROOF_ORACLES[name](xs, ys)
        key = f"{evaluator}/{name}/{bits}/{kind}"

        def check(got):
            expect(got == want, f"{key}: value differs from the oracle")

        steps = f"{name}.{bits}" if evaluator == "proof" and kind == "ones" else None
        ops.append(Op(key, run, check, steps_key=steps))

    for name in ("S", "C", "P", "L"):
        for bits in LONG_BITS:
            for kind in ("ones", "random"):
                add("proof", name, bits, kind)
        for bits in PP_BITS:
            for kind in ("ones", "random"):
                add("pp", name, bits, kind)
    for name in ("S", "C", "L"):
        add("pp", name, 256, "ones")  # RecursionError today
    for name in ("append", "lenones", "parity", "lenunary"):
        for bits in TERM_BITS:
            for kind in ("ones", "random"):
                add("term", name, bits, kind)
    add("term", "append", 1024, "ones")  # RecursionError today
    for bits in GROWTH_BITS:
        add("proof", "E", bits, "ones")
        add("pp", "E", bits, "ones")
    warmup = [op for op in ops if op.key.endswith(("/32/random", "/256/random", "/4/ones"))]
    return ops, warmup


WORKLOADS = {
    "bound-sampling": bound_sampling,
    "proof-graphs": proof_graphs,
    "compile-run": compile_run,
    "long-inputs": long_inputs,
}
