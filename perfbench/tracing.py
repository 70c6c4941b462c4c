"""Spans and counters recorded around superserre's layers, from outside.

`Tracer.install` replaces the entry points listed in `SPANS` with wrappers
that record one span per call.  A function that another module imported by
name is replaced there too, so `verify.presentation` is traced like
`serre.presentation`.  `Scalar.__init__` is only counted: a span per field
operation would cost more than the work it measures.

Spans stay in memory until `write` is called at the end of the run.  A
span's self time is its duration minus the part of it that its child spans
cover.
"""

import itertools
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every traced entry point, by layer.
SPANS = (
    ("scalars", "parse_scalar"),
    ("rootdata", "build_root_datum"),
    ("rootdata", "enumerate_simple_systems"),
    ("rootdata", "positive_roots"),
    ("cartan_dynkin", "cartan_matrix"),
    ("cartan_dynkin", "build_diagram"),
    ("cartan_dynkin", "serialize_diagram"),
    ("serre", "presentation"),
    ("serre", "Presentation.render"),
    ("freelie", "lower_terms"),
    ("freelie", "expand_terms"),
    ("freelie", "free_dimension"),
    ("quotient", "CoveringEngine.__init__"),
    ("quotient", "CoveringEngine.build_level"),
    ("quotient", "quotient_dimensions"),
    ("quotient", "check_lowering_stability"),
    ("quotient", "IdealWordEngine.rank"),
    ("verify", "verify_presentation"),
    ("verify", "necessity_test"),
    ("verify", "necessity_survey"),
)


def self_times(parents, starts, ends):
    """Self time of every span: its duration minus the union of its children.

    `parents[i]` is the index of span i's parent, or -1 for a root span.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered, reach = 0, s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, reach), min(ce, e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(e - s - covered)
    return out


def _level_sizes(engine, h_next):
    """Pair symbols and full Jacobi triples of the level about to be built,
    computed from the engine's public `level_ids` and `parity_of`."""
    sizes = {h: len(ids) for h, ids in engine.level_ids.items()}
    pairs = 0
    for hx in range(1, h_next // 2 + 1):
        hy = h_next - hx
        nx = sizes.get(hx, 0)
        if hx < hy:
            pairs += nx * sizes.get(hy, 0)
        else:
            odd = sum(engine.parity_of[x] for x in engine.level_ids.get(hx, ()))
            pairs += nx * (nx - 1) // 2 + odd
    triples = 0
    for hx in range(1, h_next - 1):
        for hy in range(1, h_next - hx):
            triples += sizes.get(hx, 0) * sizes.get(hy, 0) * sizes.get(h_next - hx - hy, 0)
    return pairs, triples


class Tracer:
    """In-memory span recorder for one process and one thread."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.counts = Counter()
        self._scalars = [0]  # Scalar constructions; a list cell is the cheapest counter
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def begin(self, name):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(self.clock())
        self.ends.append(None)
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.ends[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after:
                after(state, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters at layer boundaries --------------------------------------

    def _engine_built(self, _state, args, _result):
        self.counts["quotient.basis_size"] += len(args[0].weight_of)

    def _before_level(self, engine, h_next):
        pairs, triples = _level_sizes(engine, h_next)
        self.counts["quotient.pair_symbols"] += pairs
        self.counts["quotient.jacobi_triples_full"] += triples
        return len(engine.weight_of), len(engine.products)

    def _after_level(self, state, args, _result):
        engine = args[0]
        n_basis, n_products = state
        self.counts["quotient.basis_size"] += len(engine.weight_of) - n_basis
        new = itertools.islice(engine.products.values(), n_products, None)
        self.counts["quotient.product_entries"] += sum(len(v) for v in new)

    def _presented(self, _state, _args, pres):
        self.counts["serre.relation_elements"] += len(pres.e_side)

    # -- installation --------------------------------------------------------

    def install(self, pkg):
        """Wrap every entry point of `SPANS` in the imported package `pkg`."""
        hooks = {
            "quotient.CoveringEngine.__init__": (None, self._engine_built),
            "quotient.CoveringEngine.build_level": (self._before_level, self._after_level),
            "serre.presentation": (None, self._presented),
        }
        loaded = [m for n, m in sys.modules.items() if n == pkg.__name__ or n.startswith(pkg.__name__ + ".")]
        for mod_name, path in SPANS:
            owner = getattr(pkg, mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{mod_name}.{path}"
            wrapper = self.wrap(name, original, *hooks.get(name, (None, None)))
            if outer:
                self._patch(owner, attr, wrapper)
            else:
                for module in loaded:
                    if getattr(module, attr, None) is original:
                        self._patch(module, attr, wrapper)
        scalar = pkg.scalars.Scalar
        init, cell = scalar.__init__, self._scalars

        def counted_init(obj, *args, **kwargs):
            cell[0] += 1
            init(obj, *args, **kwargs)

        self._patch(scalar, "__init__", counted_init)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reading -------------------------------------------------------------

    def mark(self):
        """Position to pass to `summary` for the spans and counts after now."""
        return len(self.starts), Counter(self.counts), self._scalars[0]

    def summary(self, mark):
        """Self seconds, calls and largest single self time per span name,
        and counter increments, over the spans and counts since `mark`."""
        first, counts0, scalars0 = mark
        selfs = self_times(
            [p - first if p >= first else -1 for p in self.parents[first:]],
            self.starts[first:],
            self.ends[first:],
        )
        seconds, calls, largest = Counter(), Counter(), {}
        for name, ns in zip(self.names[first:], selfs):
            seconds[name] += ns / 1e9
            calls[name] += 1
            largest[name] = max(largest.get(name, 0.0), ns / 1e9)
        counts = Counter(self.counts)
        counts.subtract(counts0)
        counts["scalars.constructions"] = self._scalars[0] - scalars0
        return {"seconds": seconds, "calls": calls, "largest": largest, "counts": counts}

    def write(self, path):
        """Write every recorded span as JSON: names, then one
        [name index, parent, start ns, end ns] row per span."""
        index = {n: k for k, n in enumerate(dict.fromkeys(self.names))}
        rows = [
            [index[n], p, s, e]
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": list(index), "spans": rows}, separators=(",", ":")))
