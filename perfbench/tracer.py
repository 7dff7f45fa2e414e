"""Outside-in tracing of the koszul_perturb layers.

The tracer wraps public functions from outside the package: it replaces
each target in every ``koszul_perturb`` namespace that bound it (module
globals such as ``todd.p_gv`` after ``from .homcomplex import p_gv``, the
package namespace, and class attributes for ``GradedElement`` and
``LinearMap`` methods).  ``extend_derivation`` is replaced by a factory
that returns a wrapped derivation, reported as ``homcomplex.derivation``.

Each wrapped call is a span.  Spans nest through one stack, so every span
knows its parent; the tracer keeps per-function totals and per-(parent,
child) edge totals in memory, and self time is a span's duration minus
the durations of its direct child spans.
"""

import sys
import time

# (metric prefix, module, attribute path) — the wrapped public functions.
TARGETS = (
    ("algebra.mul", "algebra", "GradedElement.mul"),
    ("algebra.add", "algebra", "GradedElement.add"),
    ("algebra.scale", "algebra", "GradedElement.scale"),
    ("algebra.interior_product", "algebra", "interior_product"),
    ("koszul.d_k", "koszul", "d_k"),
    ("koszul.d_k_tensor", "koszul", "d_k_tensor"),
    ("koszul.p_k_tensor", "koszul", "p_k_tensor"),
    ("homcomplex.p_t", "homcomplex", "p_t"),
    ("homcomplex.p_gv", "homcomplex", "p_gv"),
    ("homcomplex.tensorize", "homcomplex", "tensorize"),
    ("homcomplex.apply_end", "homcomplex", "apply_end"),
    ("homcomplex.i_h", "homcomplex", "i_h"),
    ("homcomplex.d_hom", "homcomplex", "d_hom"),
    ("homcomplex.pi_t", "homcomplex", "pi_t"),
    ("sparse.matrix_of", "sparse", "matrix_of"),
    ("sparse.compose", "sparse", "LinearMap.compose"),
    ("sparse.add", "sparse", "LinearMap.add"),
    ("sparse.apply", "sparse", "LinearMap.apply"),
    ("perturbation.perturb", "perturbation", "perturb"),
    ("perturbation.transfer", "perturbation", "transfer"),
    ("perturbation.x_series", "perturbation", "x_series"),
    ("perturbation.validate", "perturbation", "Contraction.validate"),
    ("connection.build_connection", "connection", "build_connection"),
    ("connection.alt_power", "connection", "alt_power"),
    ("todd.q_sigma", "todd", "q_sigma"),
    ("todd.t_commutator", "todd", "t_commutator"),
    ("todd.perturbation_t", "todd", "perturbation_t"),
    ("todd.todd_exp", "todd", "todd_exp"),
    ("todd.todd_det", "todd", "todd_det"),
    ("todd.perturbed_contractions", "todd", "perturbed_contractions"),
    ("verify.run_suite", "verify", "run_suite"),
)
DERIVATION = "homcomplex.derivation"
LAYERS = ("algebra", "koszul", "homcomplex", "sparse", "perturbation", "connection", "todd", "verify")


def _terms(out):
    return len(out.terms)


def _nnz(out):
    return sum(len(col) for col in out.cols.values())


# Output sizes summed per function, reported as <function>.<name>.
SIZES = {
    "algebra.mul": ("terms_out", _terms),
    "homcomplex.p_gv": ("terms_out", _terms),
    "homcomplex.p_t": ("terms_out", _terms),
    "homcomplex.tensorize": ("terms_out", _terms),
    "sparse.compose": ("nnz_out", _nnz),
    "sparse.matrix_of": ("nnz_out", _nnz),
}


def metric_names():
    """Every per-layer metric name the traced run reports, in a fixed order."""
    names = []
    for fn in [t[0] for t in TARGETS] + [DERIVATION]:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    names += [f"{fn}.{label}" for fn, (label, _) in SIZES.items()]
    names.append("algebra.mul.truncated_frac")
    return names


class _Stat:
    __slots__ = ("calls", "self_s", "size", "truncated")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.size = 0
        self.truncated = 0


class Tracer:
    """Installs span wrappers into a koszul_perturb package and collects totals."""

    def __init__(self, package):
        self.package = package
        self.stats = {}
        self.edges = {}
        self._stack = [[None, 0.0]]  # [name, summed child span time]
        self._saved = []

    def reset(self):
        self.stats = {name: _Stat() for name in [t[0] for t in TARGETS] + [DERIVATION]}
        self.edges = {}

    def _wrap(self, name, fn):
        stat = self.stats[name]
        edges = self.edges
        stack = self._stack
        clock = time.perf_counter
        size = SIZES.get(name, (None, None))[1]
        count_truncated = name == "algebra.mul"

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[(parent[0], name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
            if size is not None:
                stat.size += size(out)
            if count_truncated and out.truncated:
                stat.truncated += 1
            return out

        return span

    def _namespaces(self):
        prefix = self.package.__name__
        return [m for n, m in sorted(sys.modules.items()) if n == prefix or n.startswith(prefix + ".")]

    def _replace(self, original, replacement):
        """Rebind `original` to `replacement` in every package namespace that bound it."""
        for module in self._namespaces():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self):
        """Start a fresh set of totals and wrap every target."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.reset()
        pkg = self.package
        for name, module_name, path in TARGETS:
            owner = getattr(pkg, module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            if cls_path:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                self._replace(original, wrapped)
        extend = pkg.homcomplex.extend_derivation
        wrap_derivation = self._wrap

        def extend_derivation(g):
            return wrap_derivation(DERIVATION, extend(g))

        self._replace(extend, extend_derivation)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    def metrics(self):
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.stats.items():
            out[f"{name}.calls"] = s.calls
            out[f"{name}.self_s"] = s.self_s
            layer_self[name.split(".")[0]] += s.self_s
        for layer, value in layer_self.items():
            out[f"layer.{layer}.self_s"] = value
        for name, (label, _) in SIZES.items():
            out[f"{name}.{label}"] = self.stats[name].size
        mul = self.stats["algebra.mul"]
        out["algebra.mul.truncated_frac"] = mul.truncated / mul.calls if mul.calls else 0.0
        return out

    def edge_table(self):
        """[(parent, child, calls, total_s)], the aggregated span tree."""
        return sorted(
            ((p or "<benchmark>", c, n, t) for (p, c), (n, t) in self.edges.items()),
            key=lambda row: -row[3],
        )
