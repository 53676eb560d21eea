"""Every call site the benchmark's tracer wraps still resolves, except six
known stale ones that the benchmark itself has to drop or repoint. A
renamed function otherwise leaves its per-layer metric reading zero in a
traced run without failing anything."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Sites whose names ``grappa`` no longer exports; mending the benchmark
# empties this set.
KNOWN_STALE = {
    "grappa.train.parse_smiles",
    "grappa.train.featurize",
    "grappa.model.validate_scope",
    "grappa.train.to_checkpoint",
    "grappa.train.load_into",
    "grappa.metrics.boiling_temperature",
}


def _tracer_sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SITES


def _resolves(module: str, dotted: str) -> bool:
    owner = importlib.import_module(module)
    for name in dotted.split("."):
        owner = getattr(owner, name, None)
        if owner is None:
            return False
    return True


def test_every_tracer_site_resolves_but_the_known_stale_ones():
    sites = _tracer_sites()
    assert sites
    unresolved = {f"{module}.{dotted}" for module, dotted, _ in sites
                  if not _resolves(module, dotted)}
    assert unresolved == KNOWN_STALE
