"""Seeded substitution files for the ``eigen_mix`` workload.

Every file carries its ground truth by construction, so the benchmark checks
``tmblocks eigen`` against facts that do not come from the code under test:

* ``eta_m9``, ``eta_m10``: the injective refinement, written through the
  library. The paper's theorem: primitive, dominant eigenvalue 2.
* ``zeta5``: the library's negative fixture. Not primitive; every letter
  occurs twice among the images, so the spectral radius is 2.
* ``rowsum_*``: every letter occurs exactly r times among all images, so
  every row of the incidence matrix sums to r and the spectral radius is r.
  ``primitive`` has a cycle through all letters plus a self-loop; ``reducible``
  has a closed half no letter of which reaches the other half; ``periodic``
  sends class c only to class c+1 (mod d), so it is irreducible with period d.
* ``constlen_*``: every image has length L (every column sums to L), with a
  cycle through all letters plus a self-loop, so it is primitive with
  dominant eigenvalue L. Power iteration has to iterate here, unlike on the
  row-sum inputs, where the all-ones start vector is already an eigenvector.

Only the random fill depends on the seed; families and sizes are fixed, so
the work per file barely changes between seeds.
"""

from __future__ import annotations

import json
import random
import subprocess
from pathlib import Path

# (name, builder, k, parameter): parameter is r for row-sum inputs, L for
# constant-length ones. Sizes keep each op at about 0.1-1 s on top of the
# interpreter start-up; imprimitive inputs are smaller because dense boolean
# squaring runs all the way to the Wielandt bound on them.
GENERATED = (
    ("rowsum_primitive", "primitive", 2048, 3),
    ("rowsum_reducible", "reducible", 1024, 2),
    ("rowsum_periodic", "periodic", 1024, 3),
    ("constlen_primitive_L2", "constlen", 2048, 2),
    ("constlen_primitive_L3", "constlen", 1536, 3),
)
PERIOD = 4
COPIES = 2  # files per generated family, each with its own random fill

_LIBRARY_INPUTS = """
import pathlib, sys
import tmblocks as tb
out = pathlib.Path(sys.argv[1])
for m in (9, 10):
    (out / f"eta_m{m}.json").write_text(tb.eta_system(m).eta.to_json())
(out / "zeta5.json").write_text(tb.zeta5_fixture().to_json())
"""

# name -> (primitive, dominant eigenvalue), from the paper and the fixture's
# construction
_LIBRARY_TRUTH = {"eta_m9": (True, 2), "eta_m10": (True, 2), "zeta5": (False, 2)}


def _cycle(k: int) -> list[list[int]]:
    """Images seeded with the cycle b -> b+1 (mod k): b's image contains b+1."""
    return [[(b + 1) % k] for b in range(k)]


def _fill_row_sums(rng: random.Random, images: list[list[int]], r: int, hosts) -> None:
    """Add occurrences until every letter occurs r times; ``hosts(a)`` draws
    a letter whose image may receive letter a."""
    count = [0] * len(images)
    for img in images:
        for a in img:
            count[a] += 1
    for a in range(len(images)):
        for _ in range(r - count[a]):
            images[hosts(a)].append(a)


def _build(rng: random.Random, kind: str, k: int, p: int) -> tuple[list[list[int]], bool]:
    if kind == "primitive":
        images = _cycle(k)
        images[0].append(0)
        _fill_row_sums(rng, images, p, lambda a: rng.randrange(k))
        return images, True
    if kind == "reducible":
        h = k // 2
        images = [[(b + 1) % h] for b in range(h)] + [[h + (b + 1) % (k - h)] for b in range(k - h)]
        images[0].append(0)
        images[h].append(h)
        # letters of the low half may sit in any image, letters of the high
        # half only in high images: nothing low ever reaches the high half
        _fill_row_sums(rng, images, p,
                       lambda a: rng.randrange(k) if a < h else rng.randrange(h, k))
        return images, False
    if kind == "periodic":
        images = _cycle(k)
        _fill_row_sums(rng, images, p,
                       lambda a: rng.randrange(k // PERIOD) * PERIOD + (a - 1) % PERIOD)
        return images, False
    if kind == "constlen":
        images = [img + [rng.randrange(k) for _ in range(p - 1)] for img in _cycle(k)]
        images[0][1] = 0
        return images, True
    raise ValueError(f"unknown family kind {kind!r}")


def generate(seed: int, outdir: Path, python: list[str], env: dict[str, str]) -> list[dict]:
    """Write the workload's JSON files and ``manifest.json`` into ``outdir``
    and return the manifest entries (file, family, k, primitive, pf)."""
    subprocess.run([*python, "-c", _LIBRARY_INPUTS, str(outdir)], env=env, check=True)
    entries = []
    for name, (primitive, pf) in _LIBRARY_TRUTH.items():
        path = outdir / f"{name}.json"
        k = len(json.loads(path.read_text())["images"])
        entries.append({"file": str(path), "family": name, "k": k,
                        "primitive": primitive, "pf": pf})
    rng = random.Random(seed)
    for copy in range(COPIES):
        for name, kind, k, p in GENERATED:
            images, primitive = _build(rng, kind, k, p)
            for img in images:
                rng.shuffle(img)
            path = outdir / f"{name}_{copy}.json"
            path.write_text(json.dumps({"alphabet": [str(a) for a in range(k)], "images": images}))
            entries.append({"file": str(path), "family": name, "k": k,
                            "primitive": primitive, "pf": p})
    (outdir / "manifest.json").write_text(json.dumps({"seed": seed, "files": entries}, indent=1))
    return entries
