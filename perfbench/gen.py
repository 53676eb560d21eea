"""Seeded inputs for the benchmark: molecules, Antoine curves, datasets.

Everything here is plain Python and numpy string/array building; nothing
calls into ``grappa``, so generating inputs cannot warm a cache inside the
program under test. The same ``(seed, scale)`` always yields the same inputs.

Molecule sizes are stratified: slot ``i`` of a pool always gets the same
heavy-atom count whatever the seed, and the seed only picks the chemistry
(family, ring system, substituents, heteroatoms, E/Z bonds). That keeps the
amount of work nearly constant from seed to seed, so run-to-run spread
measures the program and the machine rather than the luck of the draw.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field

import numpy as np

T_WINDOW_K = (250.0, 600.0)  # the curation temperature window
P_SAMPLE_PA = (10.0, 5.0e6)  # clean samples stay well inside 1 Pa .. 1e7 Pa
LN_ATM_KPA = math.log(101.325)
BOIL_PRESSURE_PA = 101325.0
SIZE_RANGE = (2, 45)  # heavy atoms per molecule

# Ring systems as atom tokens; ``subst`` lists token positions that carry an
# H and may take a substituent branch. Ring-closure digits are 1 and 2 and
# get shifted when a second ring system is nested inside the first.
_CORES = (
    (("c1", "c", "c", "c", "c", "c1"), (2, 3, 4), 0),            # benzene
    (("c1", "c", "c", "n", "c", "c1"), (1, 2, 4), 0),            # pyridine
    (("c1", "c", "c", "s", "c1"), (1, 2), 0),                    # thiophene
    (("c1", "c", "c", "o", "c1"), (1, 2), 0),                    # furan
    (("c1", "c", "c", "[nH]", "c1"), (1, 2), 1),                 # pyrrole
    (("C1", "C", "C", "C", "C", "C1"), (1, 2, 3, 4), 0),         # cyclohexane
    (("C1", "C", "C", "C", "C1"), (1, 2, 3), 0),                 # cyclopentane
    (("C1", "C", "C", "O", "C1"), (1, 2), 0),                    # oxolane
    (("C1", "C", "C", "N", "C", "C1"), (1, 2, 4), 1),            # piperidine
    (("c1", "c", "c", "c2", "c", "c", "c", "c", "c2", "c1"), (1, 2, 4, 5, 6, 7), 0),  # naphthalene
    (("c1", "c", "c", "c2", "[nH]", "c", "c", "c2", "c1"), (1, 2, 5, 6), 1),          # indole
    (("c1", "c", "c", "c2", "n", "c", "c", "c", "c2", "c1"), (1, 2, 5, 6, 7), 0),     # quinoline
    (("C1", "C", "C", "C2", "C", "C", "C", "C", "C2", "C1"), (1, 2, 4, 5, 6, 7), 0),  # decalin
)

# (smiles, heavy atoms, H-bond donors); written as a branch "(...)".
_SUBSTITUENTS = (
    ("F", 1, 0), ("Cl", 1, 0), ("Br", 1, 0), ("I", 1, 0), ("C", 1, 0),
    ("O", 1, 1), ("N", 1, 1), ("S", 1, 0), ("OC", 2, 0), ("C#N", 2, 0),
    ("C=O", 2, 0), ("SC", 2, 0), ("CC", 2, 0), ("N(C)C", 3, 0),
    ("C(=O)O", 3, 1), ("C(=O)N", 3, 1), ("C(C)C", 3, 0), ("C(F)(F)F", 4, 0),
    ("C(=O)OC", 4, 0),
)

# Groups that start a molecule; each is followed by a carbon atom.
_HEADS = (
    ("C", 1, 0), ("O", 1, 1), ("N", 1, 1), ("Cl", 1, 0), ("F", 1, 0),
    ("Br", 1, 0), ("I", 1, 0), ("S", 1, 0), ("N#C", 2, 0), ("O=C", 2, 0),
    ("OC(=O)", 3, 1), ("CC(C)", 3, 0), ("COC(=O)", 4, 0),
)

# Groups that end an acyclic chain (attached to its last carbon).
_TAILS = (
    ("C", 1, 0), ("O", 1, 1), ("N", 1, 1), ("Cl", 1, 0), ("F", 1, 0),
    ("Br", 1, 0), ("C#N", 2, 0), ("C=O", 2, 0), ("C(=O)O", 3, 1),
    ("C(=O)N", 3, 1), ("C(=O)OC", 4, 0),
)

# Backbone units starting with a carbon, then ones that need carbons around.
_CARBON_UNITS = (
    ("C", 1, 0), ("C", 1, 0), ("C", 1, 0), ("C(C)", 2, 0), ("C(F)", 2, 0),
    ("C(Cl)", 2, 0), ("C(O)", 2, 1), ("C(=O)", 2, 0), ("C(C)(C)", 3, 0),
)
_HETERO_UNITS = (("O", 1, 0), ("N", 1, 1), ("S", 1, 0))
_STEREO_UNITS = (("/C=C/", 2, 0), ("/C=C\\", 2, 0))

# Ways to make a SMILES the parser must reject, or one it parses but the
# scope check must refuse. ``{}`` is a plain carbon chain, so the added atom
# never overflows a valence by accident.
_UNPARSEABLE = ("{}(", "{})", "{}1", "{}=", "{}C(C)(C)(C)C", "X{}", "{}[Xe]")
_OUT_OF_SCOPE = ("{}[N+](C)(C)C", "{}[13CH3]", "{}[CH2]", "O", "N", "OO",
                 "[NH4+]", "ClCl")


@dataclass(frozen=True)
class Mol:
    smiles: str
    heavy_atoms: int
    donors: int
    rings: int


@dataclass(frozen=True)
class Curve:
    A: float
    B: float
    C: float

    def ln_p_kpa(self, t):
        return self.A - self.B / (self.C + np.asarray(t, dtype=float))

    def temperature_at(self, p_pa: float) -> float:
        return self.B / (self.A - math.log(p_pa / 1000.0)) - self.C


@dataclass
class CurateCase:
    """A raw CSV table plus what curation must do with each injected defect."""

    rows: list[dict]
    expected_rules: dict[int, str]  # CSV row number -> audit rule
    malformed_rows: set[int]
    n_components: int
    # Components with an end-point or a double outlier; the robust fit may
    # misjudge them (counted as failed operations, not failed checks).
    hard_components: set[str]


@dataclass
class Inputs:
    train: list[tuple[Mol, Curve, np.ndarray, np.ndarray]]
    valid: list[tuple[Mol, Curve, np.ndarray, np.ndarray]]
    stream: list[tuple[str, bool]]  # (smiles, must_be_accepted)
    eval_chunks: list[list[tuple[Mol, Curve, np.ndarray, np.ndarray]]]
    curate_chunks: list[CurateCase]
    scale: Scale
    warmup: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Scale:
    """Input sizes. A run works in rounds; each round uses its own
    ``*_units`` evaluate chunks, curate chunks and stream slices (one per
    unit of work), so ``rounds`` bounds how many rounds a run can make."""

    train_mols: int
    valid_mols: int
    points_per_mol: int
    rounds: int
    pool: int
    stream_units: int
    calls_per_unit: int
    bad_fraction: float
    eval_units: int
    eval_chunk: int
    curate_units: int
    curate_chunk: int
    rows_per_component: int


SCALES = {
    "full": Scale(train_mols=64, valid_mols=16, points_per_mol=8, rounds=16,
                  pool=300, stream_units=4, calls_per_unit=50,
                  bad_fraction=0.03, eval_units=2, eval_chunk=50,
                  curate_units=2, curate_chunk=12, rows_per_component=12),
    "tiny": Scale(train_mols=24, valid_mols=6, points_per_mol=6, rounds=3,
                  pool=12, stream_units=1, calls_per_unit=15,
                  bad_fraction=0.1, eval_units=1, eval_chunk=6,
                  curate_units=1, curate_chunk=8, rows_per_component=12),
}


# ------------------------------------------------------------------ molecules

class _MoleculeMaker:
    """Random molecules of an exact heavy-atom count; SMILES never repeat."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[str] = set()
        self.used_up: set[int] = set()  # sizes with no new molecules left

    def molecule(self, n: int) -> Mol:
        # Few distinct molecules exist at the smallest sizes; once they are
        # used up, the slot takes the next size that still has new ones.
        while True:
            if n not in self.used_up:
                for _ in range(50):
                    mol = self._attempt(n)
                    if mol.smiles not in self.seen:
                        self.seen.add(mol.smiles)
                        return mol
                self.used_up.add(n)
            n += 1

    def _attempt(self, n: int) -> Mol:
        rng = self.rng
        fitting = [c for c in _CORES if len(c[0]) <= n]
        if n >= 5 and fitting and rng.random() < 0.65:
            return self._ringed(n, fitting)
        return self._acyclic(n)

    def _pick(self, options, budget):
        fitting = [o for o in options if o[1] <= budget]
        return self.rng.choice(fitting) if fitting else None

    def _backbone(self, n: int) -> tuple[str, int]:
        """``n`` chain atoms that start and end with a plain carbon unit."""
        rng = self.rng
        parts, donors, left = [], 0, n
        while left > 0:
            roll = rng.random()
            # Heteroatoms and E/Z units need a carbon on both sides.
            inner = parts and left >= 2
            if inner and roll < 0.12:
                smi, size, don = rng.choice(_HETERO_UNITS)
            elif inner and left >= 3 and roll < 0.22:
                smi, size, don = rng.choice(_STEREO_UNITS)
            else:
                smi, size, don = self._pick(_CARBON_UNITS, left)
            if smi in ("O", "N", "S") or smi.startswith("/"):
                parts.append(smi + "C")
                size += 1
            else:
                parts.append(smi)
            donors += don
            left -= size
        return "".join(parts), donors

    def _acyclic(self, n: int) -> Mol:
        if n <= 2:
            head = self._pick(_HEADS, 1)
            return Mol(head[0] + "C", 2, head[2], 0)
        head = self._pick(_HEADS, max(1, (n - 1) // 3))
        tail = self._pick(_TAILS, max(1, (n - head[1] - 1) // 3))
        chain = n - head[1] - tail[1]
        if chain < 1:
            tail, chain = ("C", 1, 0), n - head[1] - 1
        backbone, don = self._backbone(chain)
        return Mol(head[0] + backbone + tail[0], n, head[2] + tail[2] + don, 0)

    def _ring_system(self, budget: int, cores, digit_shift: int):
        """A ring system with substituents, written from its first atom."""
        rng = self.rng
        tokens, slots, don = rng.choice(cores)
        tokens = [_shift_digits(t, digit_shift) for t in tokens]
        left = budget - len(tokens)
        donors = don
        chosen = rng.sample(slots, k=min(len(slots), rng.randint(0, 2)))
        for pos in sorted(chosen):
            sub = self._pick(_SUBSTITUENTS, left)
            if sub is None:
                break
            tokens[pos] = tokens[pos] + "(" + sub[0] + ")"
            left -= sub[1]
            donors += sub[2]
        rings = sum(ch.isdigit() for ch in "".join(tokens)) // 2
        return tokens, budget - left, donors, rings

    def _ringed(self, n: int, cores) -> Mol:
        rng = self.rng
        tokens, used, donors, rings = self._ring_system(n, cores, 0)
        left = n - used
        # Large molecules nest a second ring system on a linker branch.
        if left >= 9 and rng.random() < 0.6:
            free = [i for i, t in enumerate(tokens) if t in ("c", "C")]
            if free:
                linker = rng.randint(1, 3)
                inner_cores = [c for c in _CORES if len(c[0]) <= left - linker]
                inner, used2, don2, rings2 = self._ring_system(
                    left - linker, inner_cores, 2)
                pos = rng.choice(free)
                tokens[pos] += "(" + "C" * linker + "".join(inner) + ")"
                left -= linker + used2
                donors += don2
                rings += rings2
        if left == 0:
            return Mol("".join(tokens), n, donors, rings)
        # The head group binds the chain, or the ring's first atom directly.
        head = self._pick(_HEADS, max(1, left // 3))
        chain = left - head[1]
        backbone = ""
        if chain > 0:
            backbone, don = self._backbone(chain)
            donors += don
        return Mol(head[0] + backbone + "".join(tokens), n, donors + head[2],
                   rings)


def _shift_digits(token: str, shift: int) -> str:
    if not shift:
        return token
    return "".join(str(int(ch) + shift) if ch.isdigit() and token[0] != "["
                   else ch for ch in token)


def stratified_sizes(count: int, lo: int = SIZE_RANGE[0],
                     hi: int = SIZE_RANGE[1]) -> list[int]:
    """Heavy-atom counts for ``count`` slots, denser at small sizes (like
    real vapor-pressure data) and identical for every seed."""
    if count == 1:
        return [lo]
    u = np.linspace(0.0, 1.0, count)
    return [int(round(lo + (hi - lo) * x ** 1.3)) for x in u]


# --------------------------------------------------------------------- curves

def true_curve(mol: Mol, rng: random.Random) -> Curve:
    """A smooth, physically sensible curve that depends on structure, so a
    model can learn it: bigger and more polar molecules boil higher."""
    n = mol.heavy_atoms
    t_boil = (200.0 + 300.0 * (1.0 - math.exp(-n / 14.0))
              + 25.0 * min(mol.donors, 2) + 8.0 * mol.rings
              + rng.uniform(-8.0, 8.0))
    c = max(-130.0, min(-15.0, -(35.0 + 1.2 * n) + rng.uniform(-10.0, 10.0)))
    a = 13.6 + 0.25 * min(mol.rings, 2) + rng.uniform(-0.5, 0.5)
    b = (a - LN_ATM_KPA) * (c + t_boil)
    b = min(5800.0, max(1700.0, b))
    return Curve(a, b, c)


def sample_window(curve: Curve) -> tuple[float, float]:
    """Temperatures where the curve stays inside the clean pressure range."""
    lo = max(T_WINDOW_K[0], curve.temperature_at(P_SAMPLE_PA[0]))
    hi = min(T_WINDOW_K[1], curve.temperature_at(P_SAMPLE_PA[1]))
    if hi - lo < 60.0:  # heavy or very volatile: keep a usable span
        mid = min(max((lo + hi) / 2.0, T_WINDOW_K[0] + 30.0),
                  T_WINDOW_K[1] - 30.0)
        lo, hi = mid - 30.0, mid + 30.0
    return lo, hi


def sample_points(curve: Curve, k: int, rng: random.Random,
                  with_boiling: bool) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = sample_window(curve)
    edges = np.linspace(lo, hi, k + 1)
    temps = [rng.uniform(edges[i], edges[i + 1]) for i in range(k)]
    if with_boiling:
        t_boil = curve.temperature_at(BOIL_PRESSURE_PA)
        if T_WINDOW_K[0] <= t_boil <= T_WINDOW_K[1]:
            temps[rng.randrange(k)] = t_boil
    temps = np.array(temps)
    noise = np.array([rng.gauss(0.0, 0.01) for _ in range(k)])
    pressures = np.exp(curve.ln_p_kpa(temps) + noise) * 1000.0
    return temps, pressures


# ----------------------------------------------------------------- datasets

def _labelled(maker: _MoleculeMaker, sizes, k, rng, with_boiling=False):
    out = []
    for n in sizes:
        mol = maker.molecule(n)
        curve = true_curve(mol, rng)
        temps, pressures = sample_points(curve, k, rng, with_boiling)
        out.append((mol, curve, temps, pressures))
    return out


def _bad_smiles(rng: random.Random, count: int) -> list[str]:
    bad = []
    for i in range(count):
        pattern = rng.choice(_UNPARSEABLE if i % 2 == 0 else _OUT_OF_SCOPE)
        bad.append(pattern.format("C" * rng.randint(1, 8)))
    return bad


def _zipf_counts(calls: int, pool: int, exponent: float = 1.1) -> list[int]:
    weights = 1.0 / np.arange(1, pool + 1) ** exponent
    counts = np.floor(weights / weights.sum() * calls).astype(int)
    counts = np.maximum(counts, 1)
    while counts.sum() > calls:
        counts[np.argmax(counts)] -= 1
    i = 0
    while counts.sum() < calls:
        counts[i % pool] += 1
        i += 1
    return counts.tolist()


def _stream(maker: _MoleculeMaker, rng: random.Random, scale: Scale,
            repeated: bool) -> list[tuple[str, bool]]:
    total = scale.rounds * scale.stream_units * scale.calls_per_unit
    n_bad = max(1, int(round(total * scale.bad_fraction)))
    n_good = total - n_bad
    if repeated:
        sizes = stratified_sizes(scale.pool)
        pool = [maker.molecule(n).smiles for n in sizes]
        # Popularity rank -> pool slot is a fixed mapping (not seeded), so
        # the size mix of the stream is the same for every seed.
        slots = list(range(scale.pool))
        random.Random(20250729).shuffle(slots)
        draws = []
        for rank, count in enumerate(_zipf_counts(n_good, scale.pool)):
            draws += [pool[slots[rank]]] * count
    else:
        draws = [maker.molecule(n).smiles
                 for n in stratified_sizes(n_good)]
    calls = [(s, True) for s in draws]
    calls += [(s, False) for s in _bad_smiles(rng, n_bad)]
    rng.shuffle(calls)
    return calls


def _curate_case(maker: _MoleculeMaker, rng: random.Random,
                 scale: Scale) -> CurateCase:
    """Raw rows with injected defects, each row carrying at most one."""
    rows: list[dict] = []
    expected: dict[int, str] = {}
    malformed: set[int] = set()
    hard: set[str] = set()
    sources = ("src-a", "src-b", "src-c")
    sizes = stratified_sizes(scale.curate_chunk)
    order = list(range(len(sizes)))
    rng.shuffle(order)
    n_comp = len(sizes)
    unparseable = set(order[: max(1, n_comp // 30)])
    out_of_scope = set(order[max(1, n_comp // 30): max(2, n_comp // 15)])
    # Fixed counts of each outlier kind (the seed picks which components),
    # so the robust fit's work barely changes from seed to seed.
    n_bracketed, n_end = round(0.3 * n_comp), round(0.15 * n_comp)
    outlier_kinds = (["bracketed"] * n_bracketed + ["end"] * n_end
                     + ["double"] * n_end)
    outlier_kinds += ["none"] * (n_comp - len(outlier_kinds))
    rng.shuffle(outlier_kinds)
    for ci, n in enumerate(sizes):
        comp = f"cmp{ci:04d}"
        mol = maker.molecule(n)
        curve = true_curve(mol, rng)
        k = scale.rows_per_component
        temps, pressures = sample_points(curve, k, rng, with_boiling=False)
        smiles = mol.smiles
        comp_rule = None
        if ci in unparseable:
            smiles = rng.choice(_UNPARSEABLE[:4]).format(smiles)
            comp_rule = "unparseable_smiles"
        elif ci in out_of_scope:
            smiles = rng.choice(_OUT_OF_SCOPE[:3]).format("C" * n)
            comp_rule = "scope"
        # Up to three row defects, then outliers among the rows that survive
        # the filters. A lone outlier with two surviving rows on either side
        # in temperature the robust fit must separate. One at an end of the
        # data, or two in one component, can bend a three-parameter curve
        # towards them; the fit may misjudge those, and the benchmark counts
        # each component it misjudges as a failed operation.
        row_ids = list(range(k))
        rng.shuffle(row_ids)
        defects = {j: rng.choice(("poor", "stereo", "t_low", "t_high",
                                  "p_low", "p_high", "malformed"))
                   for j in row_ids[: rng.randint(0, 3)]}
        survivors = sorted((j for j in range(k) if j not in defects),
                           key=lambda j: temps[j])
        kind = outlier_kinds[ci]
        if kind == "bracketed":
            outliers = [rng.choice(survivors[2:-2])]
        elif kind == "end":
            outliers = [rng.choice((survivors[0], survivors[-1]))]
        elif kind == "double":
            outliers = rng.sample(survivors, 2)
        else:
            outliers = []
        for j in outliers:
            defects[j] = "outlier"
        if kind in ("end", "double") and comp_rule is None:
            hard.add(comp)
        for j in range(k):
            row_number = len(rows) + 2  # 1 = CSV header line
            t, p = float(temps[j]), float(pressures[j])
            quality, stereo = "ok", "true"
            kind = defects.get(j)
            rule = None
            if kind == "poor":
                quality, rule = "poor", "poor_quality"
            elif kind == "stereo":
                stereo, rule = "false", "stereo_not_represented"
            elif kind == "t_low":
                t, rule = rng.uniform(200.0, 245.0), "temperature_out_of_range"
            elif kind == "t_high":
                t, rule = rng.uniform(605.0, 700.0), "temperature_out_of_range"
            elif kind == "p_low":
                p, rule = rng.uniform(0.05, 0.9), "pressure_out_of_range"
            elif kind == "p_high":
                p, rule = rng.uniform(1.1e7, 5e7), "pressure_out_of_range"
            elif kind == "outlier":
                # Far beyond the 50% cut, and still inside the pressure range.
                factor = rng.uniform(4.0, 8.0)
                up = rng.random() < 0.5 and p * factor < 9.0e6
                p = p * factor if up else p / factor
                rule = "outlier_vs_antoine_fit"
            if kind == "malformed":
                malformed.add(row_number)
            elif comp_rule is not None and rule in (None,
                                                    "outlier_vs_antoine_fit"):
                # Row filters run before the SMILES check, the fit after it.
                expected[row_number] = comp_rule
            elif rule is not None:
                expected[row_number] = rule
            rows.append({
                "component_id": comp,
                "smiles": smiles,
                "temperature_K": "" if kind == "malformed" else repr(t),
                "pressure_Pa": repr(p),
                "quality": quality,
                "source": sources[j % 3],
                "stereo_ok": stereo,
            })
    return CurateCase(rows, expected, malformed, n_comp, hard)


def write_csv(case: CurateCase, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(case.rows[0]))
        writer.writeheader()
        writer.writerows(case.rows)


def build(seed: int, repeated: bool, scale: Scale) -> Inputs:
    """All inputs of one run. Molecules never repeat across parts, so a
    cache filled by one phase cannot serve another."""
    rng = random.Random(seed)
    maker = _MoleculeMaker(rng)
    train_valid = _labelled(maker,
                            stratified_sizes(scale.train_mols + scale.valid_mols),
                            scale.points_per_mol, rng)
    # Every fifth molecule validates; sizes interleave across both sets.
    valid = train_valid[2::5][: scale.valid_mols]
    valid_ids = {id(v) for v in valid}
    train = [item for item in train_valid if id(item) not in valid_ids]
    stream = _stream(maker, rng, scale, repeated)
    eval_chunks = [_labelled(maker, stratified_sizes(scale.eval_chunk),
                             scale.points_per_mol, rng, with_boiling=True)
                   for _ in range(scale.rounds * scale.eval_units)]
    curate_chunks = [_curate_case(maker, rng, scale)
                     for _ in range(scale.rounds * scale.curate_units)]
    warmup = [maker.molecule(n).smiles for n in (3, 9, 17)]
    return Inputs(train, valid, stream, eval_chunks, curate_chunks, scale,
                  warmup)
