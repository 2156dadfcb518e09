"""Disk cache for certified block bases.

Blocks are shared between sweeps (the same module shows up for spanning,
translation and dimension checks).  A cached block skips only its scan's
Gram pairings, which are a small share of a run since the scan takes only
increasing words.  A block is cached under a key that pins down everything
the entry depends on: an entry tag, the structure-table hash, highest
weight data and generator count, central charge, grading, and the exact
list of the block's closure candidate words, the increasing words (x,) + b
the scan takes (each built from a basis word b of the block below, so the
key also pins the bases of every block below it; a list from a scan that
took other candidates hashes to another key).  The entry holds the indices
of the chosen candidates and their Gram matrix, as decimal strings (exact;
also safe for arbitrarily large integers).  The tag names the kind of entry:
an entry written for another candidate scheme (the "basis" entries indexed
PBW monomial lists) hashes to another key and is never read as a closure
entry.

Trust boundary.  Unreadable entries are misses.  A block-basis entry is also
checked on load (pbw._valid_basis_entry): its chosen indices must be
strictly increasing and in range, and its Gram matrix symmetric with every
leading principal minor positive, so a cached basis is always independent;
an entry that fails is a miss and is recomputed and overwritten.  The block
keeps the check's Bareiss factor, so coordinates are solved on the very
Gram matrix the check factored; the entry holds no scan rows
(pbw.BlockBasis.rejected).  What is not
re-derived on load: the Gram entries themselves (that they are the
pairings of the chosen words) and maximality (that no candidate left out
was independent of the chosen ones).  These rest on the cache directory
holding only what this code wrote.

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


BLOCK_TAG = "closure-basis"


def block_key(table_hash, lam, level, degree, weight, words):
    payload = json.dumps(
        [
            BLOCK_TAG,
            table_hash,
            list(lam),
            level,
            degree,
            list(weight),
            [list(w) for w in words],
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

    def get_json(self, key, parse):
        """parse(stored record), or None (a miss) when the record is absent
        or unreadable or parse returns None."""
        if not self.root:
            return None
        try:
            with open(self._path(key)) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = None
        data = None if record is None else parse(record)
        if data is None:
            self.misses += 1
        else:
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
