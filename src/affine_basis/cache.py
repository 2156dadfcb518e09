"""Disk cache for certified block bases.

Building block bases dominates every verification sweep, and blocks are
shared between sweeps (the same module shows up for independence, spanning,
and dimension checks).  A block is cached under a key that pins down
everything the entries depend on: structure-table hash, highest weight data,
central charge, grading, and the exact monomial list.  Entries are stored as
decimal strings (exact; also safe for arbitrarily large integers).

Trust boundary.  Unreadable entries are misses.  A block-basis entry is also
checked on load (pbw.VermaModule.block_basis): its chosen indices must be
strictly increasing and in range, and its Gram matrix symmetric with every
leading principal minor positive, so a cached basis is always independent;
an entry that fails is a miss and is recomputed and overwritten.  What is
not re-derived on load: the Gram entries themselves (that they are the
pairings of the chosen monomials) and maximality (that no skipped candidate
was independent of the chosen ones).  These rest on the cache directory
holding only what this code wrote.  A cached block also records no
zero-norm monomials: the zero-suffix rule of block_basis, which decides a
candidate without pairing when its suffix was certified zero, trusts only
monomials that a scan in the same run paired to zero.

The cache directory comes from the AFFINE_BASIS_CACHE environment variable
or an explicit argument; with neither, caching is off and everything is
recomputed.
"""

import hashlib
import json
import os


def default_cache_dir():
    d = os.environ.get("AFFINE_BASIS_CACHE", "").strip()
    return d or None


def block_key(table_hash, lam, level, degree, weight, monos):
    payload = json.dumps(
        [
            "basis",  # entry kind, kept so existing cache directories stay valid
            table_hash,
            list(lam),
            level,
            degree,
            list(weight),
            [list(m) for m in monos],
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class GramCache:
    def __init__(self, root):
        self.root = root
        self.hits = 0
        self.misses = 0
        if root:
            os.makedirs(root, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.root, key + ".json")

    def get_json(self, key, check=None):
        """The stored record, or None (a miss) when it is absent, unreadable
        or rejected by `check`."""
        if not self.root:
            return None
        path = self._path(key)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if check is not None and not check(data):
            self.misses += 1
            return None
        self.hits += 1
        return data

    def put_json(self, key, data):
        if not self.root:
            return
        path = self._path(key)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "w") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
