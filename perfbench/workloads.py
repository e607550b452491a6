"""Seeded inputs, operations and independent checks for each workload.

Every generator returns plain data (ids, index triples, Fractions), so an
operation builds fresh spectower objects each time and never hits the
per-object caches of a previous one.  Every check compares an operation's
result with a reference derived from the plain data by the benchmark
itself, not by the engine.

The generators for `tower-f2`, `deep-chain` and `fibration-q` follow the
constructions of the test suite's random instances (the acceptance-9
tower, `random_twisted_fibration`), rewritten here on the benchmark's own
linear algebra.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import linalg
import tracing

# -- tower-f2 and deep-chain: pair-structured split complexes over F_2 -------

TOWER_GENS, TOWER_DEGREES, TOWER_BLOCKS, TOWER_DENSITY = 400, 5, 5, 0.05
CHAIN_LENGTH, CHAIN_DENSITY = 22, 0.05


def _conjugated_f2(rng, raw, pairs, density):
    """Differential triples of the pair complex after a random change of basis.

    `raw` lists (id, degree, block) sorted by (degree, block, ...), and
    `pairs` holds (source, target) ids with d(source) = target.  Each degree
    is conjugated by a lower unitriangular matrix; in the block-sorted
    order that sends a generator into blocks >= its own, so the filtration
    and with it every page are unchanged.
    """
    pos, dims = {}, {}
    for g, k, _ in raw:
        pos[g] = (k, dims.get(k, 0))
        dims[k] = dims.get(k, 0) + 1
    conj = {k: linalg.f2_random_lower_unitriangular(rng, n, density) for k, n in sorted(dims.items())}
    std = {}
    for g, h in pairs:
        k, j = pos[g]
        std.setdefault(k, [0] * dims[k + 1])[pos[h][1]] |= 1 << j
    d = {}
    for k, rows in sorted(std.items()):
        twisted = linalg.f2_mul(conj[k + 1], linalg.f2_mul(rows, linalg.f2_inverse_lower(conj[k])))
        d[k] = [(i, j) for i, row in enumerate(twisted) for j in range(dims[k]) if row >> j & 1]
    return d


def _pair_tower(raw, pairs, d):
    return {
        "gens": [(g, k) for g, k, _ in raw],
        "blocks": {g: p for g, _, p in raw},
        "d": d,
        "pairs": pairs,
    }


def gen_tower(rng):
    """The acceptance-9 construction: random pairs in a 20-degree, 5-block
    grid, each pair raising the block index by a random gap >= 0."""
    raw = [("g%d" % i, i % TOWER_DEGREES, (i // TOWER_DEGREES) % TOWER_BLOCKS)
           for i in range(TOWER_GENS)]
    raw.sort(key=lambda t: (t[1], t[2], int(t[0][1:])))
    blocks = {g: p for g, _, p in raw}
    by_degree = {}
    for g, k, _ in raw:
        by_degree.setdefault(k, []).append(g)
    used, pairs = set(), []
    for g, k, p in raw:
        if g in used or rng.random() > 0.7:
            continue
        pool = [h for h in by_degree.get(k + 1, []) if h not in used and blocks[h] >= p]
        if not pool:
            continue
        h = rng.choice(pool)
        used.update((g, h))
        pairs.append((g, h))
    return _pair_tower(raw, pairs, _conjugated_f2(rng, raw, pairs, TOWER_DENSITY))


def gen_chain(rng):
    """The deep chain a_i -> b_(i+1), a_i and b_i in block i, i = 0..n."""
    n = CHAIN_LENGTH
    raw = [("a%d" % i, 0, i) for i in range(n + 1)] + [("b%d" % i, 1, i) for i in range(n + 1)]
    pairs = [("a%d" % i, "b%d" % (i + 1)) for i in range(n)]
    return _pair_tower(raw, pairs, _conjugated_f2(rng, raw, pairs, CHAIN_DENSITY))


def pair_count_dims(data, r):
    """dim E_r^{p,q}: block-p, degree-(p+q) generators that are unpaired or
    paired with a block gap >= r (a pair with gap s is killed by d_s)."""
    blocks = data["blocks"]
    gap = {}
    for g, h in data["pairs"]:
        gap[g] = gap[h] = blocks[h] - blocks[g]
    out = {}
    for g, k in data["gens"]:
        if gap.get(g, r) >= r:
            cell = (blocks[g], k - blocks[g])
            out[cell] = out.get(cell, 0) + 1
    return out


def tower_op(sp, data):
    F2 = sp.Field(2)
    basis = sp.GradedBasis(data["gens"])
    diff = {
        k: sp.Matrix.from_entries(F2, basis.dim(k + 1), basis.dim(k), [(i, j, 1) for i, j in tr])
        for k, tr in data["d"].items()
    }
    sfc = sp.SplitFilteredComplex(sp.CochainComplex(F2, basis, diff), data["blocks"])
    conv = sfc.converge()
    pages = {r: sfc.page(r).dims() for r in range(1, conv.r_stop + 1)}
    return {"n": sfc.n, "r_stop": conv.r_stop, "certified": conv.certified,
            "einf": conv.einf, "pages": pages}


def check_tower(data, res):
    blocks = data["blocks"]
    n = max(blocks.values())
    gaps = [blocks[h] - blocks[g] for g, h in data["pairs"]]
    bad = []
    if res["n"] != n:
        bad.append("filtration length %d, expected %d" % (res["n"], n))
    r_stop = max(gaps) + 1 if gaps else 0
    if res["r_stop"] != r_stop:
        bad.append("stable page %d, expected %d" % (res["r_stop"], r_stop))
    if not res["certified"]:
        bad.append("convergence not certified")
    for r, dims in sorted(res["pages"].items()):
        if dims != pair_count_dims(data, r):
            bad.append("page %d dims differ from the pair count" % r)
    if res["einf"] != pair_count_dims(data, n + 1):
        bad.append("E_inf differs from the unpaired generators")
    return bad


def corrupt_tower(res):
    res = dict(res, einf=dict(res["einf"]))
    cell = min(res["einf"], default=(0, 0))
    res["einf"][cell] = res["einf"].get(cell, 0) + 1
    return res


# -- fibration-q: random twisted fibrations over Q ---------------------------

FIB_MINIMA, FIB_MAXIMA, FIB_EDGES_PER_MAXIMUM, FIB_TWISTED_EDGES = 12, 12, 2, 10
# two-term pieces starting in degree 0, 1, ... and surviving generators per degree
FIB_PAIRS, FIB_SURVIVORS = (1,), (1, 2)


def _standard_fiber(rng, p):
    """Two-term pieces plus surviving generators, conjugated degreewise by
    random invertible matrices.  Returns (gens, dims, d, conj, hpos): d and
    conj are dense per degree, hpos lists the surviving positions per degree."""
    gens, pairs, hgens = [], [], {}
    for deg, n in enumerate(FIB_PAIRS):
        for _ in range(n):
            a, b = "p%d" % len(gens), "q%d" % len(gens)
            gens += [(a, deg), (b, deg + 1)]
            pairs.append((a, b))
    for deg, n in enumerate(FIB_SURVIVORS):
        for _ in range(n):
            h = "h%d" % len(gens)
            gens.append((h, deg))
            hgens.setdefault(deg, []).append(h)
    pos, dims = {}, {}
    for g, k in gens:
        pos[g] = dims.get(k, 0)
        dims[k] = dims.get(k, 0) + 1
    degrees = sorted(dims)
    std = {k: [[linalg.norm(p, 0)] * dims[k] for _ in range(dims.get(k + 1, 0))] for k in degrees}
    deg_of = dict(gens)
    for a, b in pairs:
        std[deg_of[a]][pos[b]][pos[a]] = linalg.norm(p, linalg.random_scalar(rng, p, nonzero=True))
    conj = {k: linalg.random_invertible(rng, p, dims[k]) for k in degrees}
    d = {}
    for k in degrees:
        if any(any(row) for row in std[k]):
            d[k] = linalg.mul(p, linalg.mul(p, conj[k + 1], std[k]), linalg.inverse(p, conj[k]))
    return gens, dims, d, conj, {k: [pos[h] for h in hs] for k, hs in hgens.items()}


def _d(p, dims, d, k):
    m = d.get(k)
    if m is None:
        return [[linalg.norm(p, 0)] * dims.get(k, 0) for _ in range(dims.get(k + 1, 0))]
    return m


def _nonidentity_mix(rng, p, n):
    for _ in range(20):
        m = linalg.random_invertible(rng, p, n)
        if m != linalg.identity(p, n):
            return m
    m = linalg.identity(p, n)
    if n >= 2:
        m[0][1] = linalg.norm(p, 1)
    else:
        m[0][0] = linalg.norm(p, -1)
    return m


def _chain_auto(rng, p, dims, d, conj, hpos, h_action=None):
    """An invertible chain automorphism of the fiber: the identity on the
    paired generators, h_action on the surviving ones (in standard
    coordinates), scrambled by I + dh + hd homotopy noise."""
    h_action = h_action or {}
    degrees = sorted(dims)
    blocks = {}
    for k in degrees:
        b = linalg.identity(p, dims[k])
        mix = h_action.get(k)
        if mix is not None:
            hs = hpos[k]
            for a, pa in enumerate(hs):
                for c, pc in enumerate(hs):
                    b[pa][pc] = mix[a][c]
        blocks[k] = linalg.mul(p, linalg.mul(p, conj[k], b), linalg.inverse(p, conj[k]))
    hmap = {k: linalg.random_matrix(rng, p, dims.get(k - 1, 0), dims[k], 0.3) for k in degrees}
    noised = {}
    for k in degrees:
        n = dims[k]
        t = linalg.identity(p, n)
        if dims.get(k - 1, 0):
            t = linalg.add(p, t, linalg.mul(p, _d(p, dims, d, k - 1), hmap[k], n))
        if k + 1 in hmap and dims.get(k + 1, 0):
            t = linalg.add(p, t, linalg.mul(p, hmap[k + 1], _d(p, dims, d, k), n))
        if linalg.rank(p, t) != n:
            return blocks
        noised[k] = linalg.mul(p, blocks[k], t, n)
    return noised


def gen_fibration(rng):
    """A twisted fibration over a free-pi_1 two-level base: 12 minima and
    12 maxima, each maximum joined to two minima.  Ten random edges act by
    chain automorphisms of the fiber; the first of them also acts by a
    non-identity mix on one fiber cohomology group.  The sizes are fixed
    so that ops cost about the same; the seed picks everything else."""
    p = None
    gens, dims, d, conj, hpos = _standard_fiber(rng, p)
    mixable = [q for q, hs in sorted(hpos.items()) if hs]
    q0 = rng.choice(mixable)
    mix = _nonidentity_mix(rng, p, len(hpos[q0]))
    mins = ["m%d" % i for i in range(FIB_MINIMA)]
    maxs = ["X%d" % i for i in range(FIB_MAXIMA)]
    edges, trajs = [], []
    for top in maxs:
        for bot in rng.sample(mins, FIB_EDGES_PER_MAXIMUM):
            eid = "g%d" % len(edges)
            edges.append((eid, top, bot))
            trajs.append((eid, top, bot, rng.choice([1, -1]), ((eid, 1),)))
    twisted = rng.sample([e for e, _, _ in edges], FIB_TWISTED_EDGES)
    actions = {}
    for n, eid in enumerate(twisted):
        auto = _chain_auto(rng, p, dims, d, conj, hpos, {q0: mix} if n == 0 else None)
        actions[eid] = {k: linalg.triples(m) for k, m in auto.items()}
    points = [(x, 0) for x in mins] + [(x, 1) for x in maxs]
    total = [(x + "|" + g, px + k) for x, px in points for g, k in gens]
    degrees = sorted({k for _, k in total})
    cut = -10 * degrees[len(degrees) // 2]
    action = {g: Fraction(-100 * k + rng.randint(0, 9), 10) for g, k in total}
    return {
        "base": {"vertices": mins + maxs, "edges": edges, "points": points, "trajectories": trajs},
        "fiber": {"gens": gens, "d": {k: linalg.triples(m) for k, m in d.items()}},
        "actions": actions,
        "action": action,
        "cut": cut,
        "h_fiber": {k: len(hs) for k, hs in hpos.items() if hs},
        "total": total,
    }


def fibration_op(sp, data):
    Q = sp.Field()
    b = data["base"]
    base = sp.MorseData(sp.BaseGraph(b["vertices"], b["edges"]), b["points"], b["trajectories"])
    basis = sp.GradedBasis(data["fiber"]["gens"])
    fiber = sp.CochainComplex(Q, basis, {
        k: sp.Matrix.from_entries(Q, basis.dim(k + 1), basis.dim(k), tr)
        for k, tr in data["fiber"]["d"].items()
    })
    actions = {
        eid: {k: sp.Matrix.from_entries(Q, basis.dim(k), basis.dim(k), tr) for k, tr in blocks.items()}
        for eid, blocks in data["actions"].items()
    }
    fd = sp.FibrationData(base, fiber, actions)
    sfc = sp.assemble_fibration(fd)
    e2 = sp.e2_table(fd).entries
    conv = sfc.converge()
    pages = {r: sfc.page(r).dims() for r in range(1, sfc.n + 2)}
    fmap = sp.truncation_map(sfc, data["action"], (None, None), (data["cut"], None))
    maps = sp.map_of_spectral_sequences(fmap)
    return {"complex": sfc.complex, "certified": conv.certified, "einf": conv.einf,
            "e2": e2, "pages": pages, "maps": len(maps)}


def _totals(dims):
    out = {}
    for (p, q), n in dims.items():
        if n:
            out[p + q] = out.get(p + q, 0) + n
    return out


def check_fibration(data, res):
    bad = []
    if not res["certified"]:
        bad.append("convergence not certified")
    cx = res["complex"]
    want_dims = {}
    for _, k in data["total"]:
        want_dims[k] = want_dims.get(k, 0) + 1
    got_dims = {k: cx.dim(k) for k in cx.degrees()}
    if got_dims != want_dims:
        return bad + ["total complex has dims %s, expected %s" % (got_dims, want_dims)]
    ranks = {k: linalg.rank(None, cx.d(k).to_dense()) for k in want_dims}
    direct = {k: n - ranks[k] - ranks.get(k - 1, 0) for k, n in want_dims.items()}
    direct = {k: v for k, v in direct.items() if v}
    if _totals(res["einf"]) != direct:
        bad.append("E_inf totals %s differ from direct cohomology %s" % (_totals(res["einf"]), direct))
    index_count = {}
    for _, px in data["base"]["points"]:
        index_count[px] = index_count.get(px, 0) + 1
    e1 = {(px, q): n * h for px, n in index_count.items() for q, h in data["h_fiber"].items()}
    if res["pages"][1] != e1:
        bad.append("E_1 differs from (points of index p) x dim H^q(fiber)")
    if res["e2"] != res["pages"][2]:
        bad.append("E_2 table differs from page 2")
    euler = sum((-1) ** k * n for k, n in want_dims.items())
    for r, dims in sorted(res["pages"].items()):
        if sum((-1) ** (p + q) * n for (p, q), n in dims.items()) != euler:
            bad.append("page %d has the wrong Euler characteristic" % r)
    if res["maps"] < 2:
        bad.append("map of spectral sequences covers %d pages" % res["maps"])
    return bad


def corrupt_fibration(res):
    return dict(res, certified=False)


# -- cli-docs: the golden CLI runs of acceptance 10 --------------------------

CLI_CASES = [
    ("homology_circle", ["homology", "circle.json"], 0),
    ("homology_interval", ["homology", "interval.json"], 0),
    ("homology_klein_cellular_f2", ["homology", "klein_cellular.json", "--field", "F2"], 0),
    ("pages_hopf_all", ["pages", "hopf.json", "--all"], 0),
    ("pages_hopf_all_raw", ["pages", "hopf.json", "--all", "--raw"], 0),
    ("pages_torus_p2", ["pages", "torus_product.json", "--page", "2"], 0),
    ("pages_klein_f2_all", ["pages", "klein_twisted.json", "--all", "--field", "F2"], 0),
    ("e2_klein", ["e2", "klein_twisted.json"], 0),
    ("oracle_torus", ["oracle-check", "torus_product.json"], 0),
    ("oracle_interval_filtered", ["oracle-check", "interval_filtered.json"], 0),
    ("oracle_hopf", ["oracle-check", "hopf.json"], 0),
    ("extend_wedge", ["extend", "wedge2_subsystem.json", "wedge2_graph.json"], 0),
    ("extend_squares", ["extend", "circle_squares_subsystem.json", "circle_graph.json"], 0),
    ("compare_klein", ["compare-ls", "klein_cellular.json", "klein_twisted.json"], 0),
    ("compare_torus", ["compare-ls", "torus_cellular.json", "torus_product.json"], 0),
    ("kunneth_torus", ["kunneth", "circle.json", "circle.json"], 0),
    ("bad_parse", ["homology", "bad_parse.json"], 2),
    ("bad_d2", ["homology", "bad_d2.json"], 3),
    ("disconnected", ["extend", "disconnected_subsystem.json", "disconnected_graph.json"], 4),
]
CLI_ERROR_PREFIX = {2: b"parse error: ", 3: b"invariant violation: ", 4: b"precondition violation: "}


def gen_cli(root):
    """Argv lists with document paths, and the golden stdout of each case."""
    data_dir = os.path.join(root, "tests", "data")
    cases = []
    for name, argv, code in CLI_CASES:
        args = [argv[0]] + [os.path.join(data_dir, a) if a.endswith(".json") else a for a in argv[1:]]
        inputs = [a for a in args if a.endswith(".json")]
        golden = b""
        if code == 0:
            with open(os.path.join(data_dir, "golden", name + ".txt"), "rb") as fh:
                golden = fh.read()
        blob = b"".join(open(path, "rb").read() for path in inputs)
        cases.append({"name": name, "argv": args, "code": code, "golden": golden,
                      "digest": hashlib.sha256(blob + golden).hexdigest()})
    return cases


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_op(case, root, env, traced=False):
    """One `spectower` invocation in a fresh interpreter; waits for it."""
    if traced:
        cmd = [sys.executable, os.path.join(root, "perfbench", "cli_child.py")] + case["argv"]
    else:
        cmd = [sys.executable, "-m", "spectower.cli"] + case["argv"]
    if traced:
        env = dict(env, PERFBENCH_SPAWN=repr(time.monotonic()))
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=60)
    err, spans = proc.stderr, None
    if traced:
        head, sep, tail = err.rpartition(tracing.SPANS_MARK)
        if sep:
            err, spans = head, json.loads(tail)
    return {"code": proc.returncode, "out": proc.stdout, "err": err, "spans": spans}


def check_cli(case, res):
    bad = []
    if res["code"] != case["code"]:
        bad.append("%s exited %d, expected %d" % (case["name"], res["code"], case["code"]))
    if res["out"] != case["golden"]:
        bad.append("%s stdout differs from its golden file" % case["name"])
    if case["code"]:
        lines = res["err"].splitlines()
        if len(lines) != 1 or not lines[0].startswith(CLI_ERROR_PREFIX[case["code"]]):
            bad.append("%s stderr is not a one-line %r message" % (case["name"], CLI_ERROR_PREFIX[case["code"]]))
    return bad


def corrupt_cli(res):
    return dict(res, out=res["out"] + b"x")


# -- shared ------------------------------------------------------------------


def digest(obj):
    """Short SHA-256 of the canonical JSON form of generated plain data."""
    def default(x):
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, bytes):
            return hashlib.sha256(x).hexdigest()
        raise TypeError(type(x))
    text = json.dumps(obj, sort_keys=True, default=default, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _stringify_keys(obj):
    if isinstance(obj, dict):
        return {str(k): _stringify_keys(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify_keys(v) for v in obj]
    return obj


def input_digest(inputs):
    return digest(_stringify_keys(inputs))


def rng_for(seed, workload, i):
    """Independent stream per (seed, workload, input index)."""
    return random.Random("%s/%s/%d" % (seed, workload, i))
