"""Spans and counts recorded around calls into the package's public functions.

The tracer wraps functions at module boundaries from outside: every name in
a loaded `gfrec` module that refers to one of the functions below is
replaced by a wrapper for the duration of a traced pass, so calls between
modules are seen too.  Nothing inside the package changes.  Each span keeps
its name, layer, start, end, parent span, task and whether it raised (or,
for `cli.main`, exited non-zero).  Counts (points, dim, nnz, steps, degrees,
bits) are taken from the same calls' arguments and results.  Spans stay in
memory until the run writes them out.

A layer's self time is the time its spans cover minus the time their child
spans cover; the calls are single-threaded, so children nest strictly.  The
count hooks run after a call returns, inside its callers' spans; their time
is taken out of every span that was open, so it shows only in the overall
tracing overhead.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
import weakref
from contextlib import contextmanager

LAYERS = (
    "galois", "cyclotomic", "funcalg", "oracle", "transfer",
    "linalg", "recurrence", "numtheory", "harness", "cli",
)

WRAPPED = {
    "galois": ("make_field",),
    "cyclotomic": ("regular_matrix",),
    "funcalg": ("parse", "instantiate"),
    "oracle": ("sum_sequence", "exp_sum", "joint_counts"),
    "transfer": (
        "system_for", "run", "integer_annihilator", "build_trapezoid_system",
        "build_rotation_system", "build_symmetric_system", "build_quadratic_matrix",
    ),
    "linalg": ("minimal_polynomial", "solve_with_free_zero"),
    "recurrence": ("discover", "satisfies", "extend"),
    "numtheory": ("gauss_sum", "eigen_check", "eisenstein_dumas", "hadamard_check"),
    # _entry runs one battery item; it is the only way to time C1..C15 from outside
    "harness": ("acceptance_run", "_entry", "compare", "trap_conjecture_seq", "rot_conjecture_seq"),
    "cli": ("main",),
}

CLI_SUBCOMMANDS = ("expsum", "verify", "discover", "annihilator", "conjecture", "numtheory", "accept", "bench")
CRITERIA = tuple("C%d" % i for i in range(1, 16))


class Span:
    __slots__ = ("id", "parent", "name", "layer", "task", "start", "end", "child", "hook", "failed", "counts")

    def __init__(self, sid, parent, name, layer, task):
        self.id = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.task = task
        self.child = 0.0  # time covered by direct children
        self.hook = 0.0  # time the tracer's count hooks took while the span was open
        self.failed = False
        self.counts = None
        self.start = self.end = 0.0

    def as_record(self):
        return {
            "id": self.id, "parent": self.parent, "name": self.name, "layer": self.layer,
            "task": self.task, "start": self.start, "end": self.end, "hook": self.hook,
            "failed": self.failed, "counts": self.counts,
        }

    def duration(self):
        """Time the call took, less the tracer's own count hooks inside it."""
        return self.end - self.start - self.hook


def _nnz(sys_):
    return sum(1 for row in sys_.matrix for entry in row if not entry.is_zero())


def _bits(seq):
    return max((abs(c).bit_length() for v in seq.values for c in v.coeffs), default=0)


def _kernel(field):
    if field.q == 2:
        return "f2"
    return "prime" if field.r == 1 else "ext"


class Tracer:
    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self._nnz = {}
        self._thread = threading.get_ident()

    # -- wrapping -----------------------------------------------------------

    def install(self):
        """Replace every reference to a wrapped function in loaded gfrec modules."""
        modules = [m for n, m in sys.modules.items() if n == "gfrec" or n.startswith("gfrec.")]
        for layer, names in WRAPPED.items():
            home = sys.modules.get("gfrec." + layer)
            if home is None:  # gfrec.cli is imported only by the cli-session workload
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(original, layer, name)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        installed = bool(self._patched)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    def _wrap(self, fn, layer, name):
        tracer = self
        after = getattr(self, "_after_%s_%s" % (layer, name.lstrip("_")), None)

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            span = tracer._open(layer, "%s.%s" % (layer, name))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                tracer._close(span)
            if after is not None:
                t0 = time.perf_counter()
                after(span, args, kwargs, result)
                spent = time.perf_counter() - t0
                for open_span in tracer._stack:  # keep hook time out of the callers' times
                    open_span.hook += spent
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open(self, layer, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), None if parent is None else parent.id, name, layer, self.task)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.duration()

    # -- counts taken at the same boundaries --------------------------------

    def _set(self, span, **counts):
        span.counts = counts

    def _after_funcalg_instantiate(self, span, args, kwargs, result):
        self._set(span, monomials=len(result.terms))

    def _after_oracle_exp_sum(self, span, args, kwargs, result):
        g = args[0]
        self._set(span, points=g.field.q ** g.n, kernel=_kernel(g.field))

    def _after_oracle_joint_counts(self, span, args, kwargs, result):
        g = args[0][0]
        self._set(span, points=g.field.q ** g.n)

    def _after_oracle_sum_sequence(self, span, args, kwargs, result):
        self._set(span, bits=_bits(result))

    def _system_counts(self, sys_):
        ref, nnz = self._nnz.get(id(sys_), (None, 0))
        if ref is None or ref() is not sys_:  # id() is reused once a system is freed
            nnz = _nnz(sys_)
            self._nnz[id(sys_)] = (weakref.ref(sys_), nnz)
        return sys_.dim, nnz

    def _after_transfer_system_for(self, span, args, kwargs, result):
        dim, nnz = self._system_counts(result)
        self._set(span, dim=dim, nnz=nnz)

    def _after_transfer_run(self, span, args, kwargs, result):
        sys_ = args[0]
        _dim, nnz = self._system_counts(sys_)
        steps = len(result) - 1
        self._set(span, steps=steps, nnz_steps=nnz * steps, bits=_bits(result))

    def _after_transfer_integer_annihilator(self, span, args, kwargs, result):
        sys_ = args[0]
        self._set(span, inflated_dim=sys_.dim * (sys_.field.p - 1), degree=result.degree)

    def _after_recurrence_discover(self, span, args, kwargs, result):
        self._set(span, degree=result.degree)

    def _after_recurrence_extend(self, span, args, kwargs, result):
        self._set(span, terms=len(result) - len(args[0]), bits=_bits(result))

    def _after_harness_entry(self, span, args, kwargs, result):
        span.name = "harness.%s" % args[0]

    def _after_cli_main(self, span, args, kwargs, result):
        argv = args[0] if args else kwargs.get("argv")
        span.name = "cli.%s" % (argv[0] if argv else "?")
        span.failed = result != 0

    # -- per-layer metrics ----------------------------------------------------

    def metrics(self, spans=None):
        """Per-layer metrics of one traced pass."""
        spans = self.spans if spans is None else spans
        m = {}

        def total(name, key=None):
            sel = [s for s in spans if s.name == name]
            if key is None:
                return sum(s.duration() for s in sel)
            return sum((s.counts or {}).get(key, 0) for s in sel)

        def calls(name):
            return sum(1 for s in spans if s.name == name)

        def rate(num, den):
            return num / den if den > 0 else 0.0

        for layer in LAYERS:
            mine = [s for s in spans if s.layer == layer]
            m[layer + ".self_s"] = sum(s.duration() - s.child for s in mine)
            m[layer + ".failed"] = sum(1 for s in mine if s.failed)

        m["galois.make_field.s"] = total("galois.make_field")
        m["funcalg.parse.s"] = total("funcalg.parse")
        m["funcalg.instantiate.s"] = total("funcalg.instantiate")
        m["funcalg.instantiate.calls"] = calls("funcalg.instantiate")
        m["funcalg.instantiate.monomials"] = total("funcalg.instantiate", "monomials")

        exp = [s for s in spans if s.name == "oracle.exp_sum" and s.counts]  # not the ones that raised
        m["oracle.points"] = total("oracle.exp_sum", "points") + total("oracle.joint_counts", "points")
        m["oracle.sum_sequence.s"] = total("oracle.sum_sequence")
        for kernel in ("f2", "prime", "ext"):
            sel = [s for s in exp if s.counts["kernel"] == kernel]
            m["oracle.%s.points_per_s" % kernel] = rate(
                sum(s.counts["points"] for s in sel), sum(s.duration() for s in sel)
            )
        m["oracle.joint_counts.s"] = total("oracle.joint_counts")
        m["oracle.joint_counts.points_per_s"] = rate(
            total("oracle.joint_counts", "points"), total("oracle.joint_counts")
        )

        m["transfer.system_for.calls"] = calls("transfer.system_for")
        m["transfer.system_for.s"] = total("transfer.system_for")
        m["transfer.dim"] = total("transfer.system_for", "dim")
        m["transfer.nnz"] = total("transfer.system_for", "nnz")
        m["transfer.run.steps"] = total("transfer.run", "steps")
        m["transfer.run.s"] = total("transfer.run")
        m["transfer.run.nnz_steps_per_s"] = rate(total("transfer.run", "nnz_steps"), total("transfer.run"))
        m["transfer.integer_annihilator.calls"] = calls("transfer.integer_annihilator")
        m["transfer.integer_annihilator.s"] = total("transfer.integer_annihilator")
        m["transfer.integer_annihilator.inflated_dim"] = total("transfer.integer_annihilator", "inflated_dim")
        m["transfer.integer_annihilator.degree"] = total("transfer.integer_annihilator", "degree")

        m["recurrence.discover.s"] = total("recurrence.discover")
        m["recurrence.discover.degree"] = total("recurrence.discover", "degree")
        m["recurrence.satisfies.s"] = total("recurrence.satisfies")
        m["recurrence.extend.s"] = total("recurrence.extend")
        m["recurrence.extend.terms_per_s"] = rate(total("recurrence.extend", "terms"), total("recurrence.extend"))
        m["cyclotomic.value_bits"] = max(((s.counts or {}).get("bits", 0) for s in spans), default=0)

        m["harness.accept.s"] = total("harness.acceptance_run")
        for cid in CRITERIA:
            m["harness.%s.s" % cid] = total("harness." + cid)
        for sub in CLI_SUBCOMMANDS:
            durations = [s.duration() for s in spans if s.name == "cli." + sub]
            m["cli.%s.calls" % sub] = len(durations)
            m["cli.%s.p50_s" % sub] = statistics.median(durations) if durations else 0.0
        m["trace.spans"] = len(spans)
        return m


def median_metrics(per_pass):
    """Median of each metric over passes."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
