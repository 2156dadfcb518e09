"""Span tracing around the package's layer boundaries, from outside the package.

`install` replaces the public entry points of each layer (module) with
wrappers that record a span (id, name, start, end, parent id) and update
per-name aggregates: calls, inclusive seconds (outermost occurrence only,
so recursion is not counted twice) and self seconds (duration minus the
time covered by child spans).  Counters are recorded at the same
boundaries.  Names imported into a consumer module are wrapped where they
are looked up (e.g. `intertwiner.solve_sparse`, `pbw.rank_int`,
`affine.build_c2`), since wrapping only the home module would record
nothing for those callers.

The pairing kernel recurses through its own methods, so it is not wrapped
per call; its memo sizes are read when each kernel is freed and at the end.
Its time shows inside the spans of its callers.
"""

import collections
import os
import time
import weakref

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent_id)
        self.dropped = 0
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counts = collections.Counter()
        self._stack = []         # [span_id, child_seconds]
        self._depth = collections.Counter()
        self._next_id = 0
        self._undo = []
        self._kernels = weakref.WeakSet()
        self._memo_fields = {}   # kernel class -> ((memo attribute, metric), ...)

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, pre=None, post=None):
        """`fn` wrapped in a span; `pre(args)` runs before the call and its
        value is handed to `post(args, result, state)` after it."""
        stack, spans, stats, depth = self._stack, self.spans, self.stats, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = pre(args) if pre is not None else None
            parent = stack[-1][0] if stack else None
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0.0]
            stack.append(frame)
            level = depth[name]
            depth[name] = level + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] = level
                dur = end - start
                st = stats[name]
                st[0] += 1
                if level == 0:
                    st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, start, end, parent))
                else:
                    self.dropped += 1
            if post is not None:
                post(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, pre=None, post=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, pre, post))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def incl(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name):
        return self.stats[name][2] if name in self.stats else 0.0


def install(tracer, full=True):
    """Wrap the layer entry points.  With full=False only the disk cache is
    wrapped: timed runs use its counters to prove a warm cache stayed warm."""
    from affine_basis import affine, cache, cartan, intertwiner, linalg, partitions, pbw, verify

    counts = tracer.counts

    def cache_get_post(args, result, _):
        if args[0].root:
            counts["cache.hits" if result is not None else "cache.misses"] += 1

    def cache_put_post(args, result, _):
        if args[0].root:
            counts["cache.puts"] += 1

    tracer.patch(cache.GramCache, "get_json", "cache.get", post=cache_get_post)
    tracer.patch(cache.GramCache, "put_json", "cache.put", post=cache_put_post)
    if not full:
        return

    def families_post(args, result, _):
        counts["partitions.families"] += len(result)

    tracer.patch(partitions, "enumerate_admissible", "partitions.enumerate", post=families_post)

    def block_pre(args):
        module, degree, weight = args[:3]
        return (degree, tuple(weight)) in module._bases, counts["cache.hits"]

    def block_post(args, result, state):
        memoised, hits = state
        if memoised:
            return
        if counts["cache.hits"] != hits:
            return  # loaded from the disk cache, not scanned
        counts["pbw.blocks"] += 1
        counts["pbw.candidates"] += result.candidates
        counts["pbw.kept"] += result.rank

    tracer.patch(pbw.VermaModule, "block_basis", "pbw.block_basis", block_pre, block_post)
    tracer.patch(pbw.VermaModule, "pair", "pbw.pair")
    tracer.patch(pbw.VermaModule, "act_word", "pbw.act_word")
    for owner in (pbw, verify):
        tracer.patch(owner, "straighten", "pbw.straighten")
    tracer.patch(pbw, "rank_int", "kernel.rank_int")
    for owner in (pbw, verify, affine, cartan):
        tracer.patch(owner, "build_c2", "cartan.build_c2")

    for owner in (linalg, intertwiner):
        tracer.patch(owner, "invert", "linalg.invert")

    def sparse_post(args, result, _):
        counts["linalg.solve_sparse_rows"] += len(args[0])
        counts["linalg.solve_sparse_vars"] += args[2]

    for owner in (linalg, intertwiner):
        tracer.patch(owner, "solve_sparse", "linalg.solve_sparse", post=sparse_post)

    tracer.patch(intertwiner.TruncatedModule, "__init__", "intertwiner.truncated_build")
    tracer.patch(intertwiner.TruncatedModule, "act_matrix", "intertwiner.act_matrix")
    tracer.patch(intertwiner.TruncatedModule, "coordinates", "intertwiner.coordinates")
    tracer.patch(intertwiner.TensorModule, "act_word", "intertwiner.tensor_act")
    tracer.patch(intertwiner.TensorModule, "pair", "intertwiner.tensor_pair")
    for attr in ("get_truncated", "solve_w", "verify_intertwiner",
                 "sweep_projection_chain", "verify_projection_chain", "verify_cross_model"):
        tracer.patch(intertwiner, attr, "intertwiner." + attr)

    for attr in ("verify_independence", "verify_spanning", "sweep_t_power", "verify_t_power",
                 "sweep_translation", "verify_translation", "verify_c0_nonvanishing"):
        tracer.patch(verify, attr, "verify." + attr)

    _install_kernel_counters(tracer, pbw)


def _install_kernel_counters(tracer, pbw):
    """Memo sizes summed over every kernel the run created: a kernel's
    memos are added when it is freed, live ones at the end (`finish`)."""
    counts = tracer.counts
    memos = {pbw.VermaKernel: (("_memo", "kernel.act_memo"), ("_pmemo", "kernel.pair_memo")),
             pbw.UKernel: (("_memo", "kernel.u_memo"),)}

    def register(args, result, _):
        tracer._kernels.add(args[0])

    for cls, fields in memos.items():
        if "__del__" in cls.__dict__:
            continue

        def on_free(kernel, fields=fields):
            for attr, metric in fields:
                counts[metric] += len(getattr(kernel, attr))

        try:
            cls.__del__ = on_free
        except TypeError:  # a compiled kernel type takes no new attributes: memos read 0
            continue
        tracer._undo.append((cls, "__del__", None))
        tracer.patch(cls, "__init__", "kernel.init", post=register)
        tracer._memo_fields[cls] = fields


def finish(tracer, outcomes, cache_dirs):
    """Per-layer metrics of one traced certification run."""
    from affine_basis import intertwiner

    c = tracer.counts
    final = collections.Counter(c)
    for kernel in list(tracer._kernels):
        for attr, metric in tracer._memo_fields[type(kernel)]:
            final[metric] += len(getattr(kernel, attr))
    lookups = c["cache.hits"] + c["cache.misses"]
    size = 0
    for root in cache_dirs:
        for entry in os.scandir(root):
            size += entry.stat().st_size
    t = tracer
    return {
        "partitions.enumerate_s": t.incl("partitions.enumerate"),
        "partitions.families": c["partitions.families"],
        "pbw.block_basis_s": t.self_s("pbw.block_basis"),
        "pbw.blocks": c["pbw.blocks"],
        "pbw.candidates": c["pbw.candidates"],
        "pbw.kept": c["pbw.kept"],
        "pbw.keep_ratio": c["pbw.kept"] / c["pbw.candidates"] if c["pbw.candidates"] else 0.0,
        "pbw.pair_s": t.incl("pbw.pair"),
        "pbw.act_word_s": t.incl("pbw.act_word"),
        "pbw.straighten_s": t.incl("pbw.straighten"),
        "kernel.pair_memo": final["kernel.pair_memo"],
        "kernel.act_memo": final["kernel.act_memo"],
        "kernel.u_memo": final["kernel.u_memo"],
        "kernel.rank_int_s": t.incl("kernel.rank_int"),
        "kernel.rank_int_calls": t.calls("kernel.rank_int"),
        "linalg.invert_s": t.incl("linalg.invert"),
        "linalg.invert_calls": t.calls("linalg.invert"),
        "linalg.solve_sparse_s": t.incl("linalg.solve_sparse"),
        "linalg.solve_sparse_calls": t.calls("linalg.solve_sparse"),
        "linalg.solve_sparse_rows": c["linalg.solve_sparse_rows"],
        "linalg.solve_sparse_vars": c["linalg.solve_sparse_vars"],
        "intertwiner.truncated_build_s": t.incl("intertwiner.truncated_build"),
        "intertwiner.get_truncated_calls": t.calls("intertwiner.get_truncated"),
        "intertwiner.act_matrix_s": t.incl("intertwiner.act_matrix"),
        "intertwiner.act_matrix_calls": t.calls("intertwiner.act_matrix"),
        "intertwiner.coordinates_s": t.incl("intertwiner.coordinates"),
        "intertwiner.solve_w_s": t.self_s("intertwiner.solve_w"),
        "intertwiner.solve_w_calls": t.calls("intertwiner.solve_w"),
        "intertwiner.commutation_check_s": t.self_s("intertwiner.verify_intertwiner"),
        "intertwiner.tensor_act_s": t.incl("intertwiner.tensor_act"),
        "intertwiner.tensor_pair_s": t.incl("intertwiner.tensor_pair"),
        "intertwiner.trunc_cache_entries": len(intertwiner._TRUNC_CACHE),
        "verify.independence_s": t.self_s("verify.verify_independence"),
        "verify.spanning_s": t.self_s("verify.verify_spanning"),
        "verify.t_power_s": t.self_s("verify.sweep_t_power") + t.self_s("verify.verify_t_power"),
        "verify.translation_s": (t.self_s("verify.sweep_translation")
                                 + t.self_s("verify.verify_translation")),
        "verify.steps": len(outcomes),
        "verify.steps_failed": sum(1 for o in outcomes if o["error"] or not o["ok"]),
        "cache.get_s": t.incl("cache.get"),
        "cache.put_s": t.incl("cache.put"),
        "cache.hits": c["cache.hits"],
        "cache.misses": c["cache.misses"],
        "cache.puts": c["cache.puts"],
        "cache.hit_ratio": c["cache.hits"] / lookups if lookups else 0.0,
        "cache.bytes_on_disk": size,
        "cartan.build_c2_calls": t.calls("cartan.build_c2"),
        "cartan.build_c2_s": t.incl("cartan.build_c2"),
        "trace.spans": t._next_id,
    }
