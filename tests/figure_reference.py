"""The figures' numbers: a reference for every preset's CSV columns and cutoff
certificate, and the tolerances a rerun is held to.

``figure_reference.json`` (next to this file) holds, for each of the 17
figure presets, its ``CutoffCertificate`` (null for a fixed cutoff) and every
column of its CSV.  ``TestReproduceFigure::test_every_preset_passes_its_checks``
compares a fresh run against it, each column relative to its largest
magnitude.  Compare the working tree against the reference, or rewrite it:

    PYTHONPATH=src python tests/figure_reference.py          # print each column's largest move
    PYTHONPATH=src python tests/figure_reference.py --write  # and rewrite the reference
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from kerr_thermo import config
from kerr_thermo.cli import reproduce_figure
from kerr_thermo.presets import FIGURE_NAMES

REFERENCE = Path(__file__).with_name("figure_reference.json")

# Each column class's tolerance on max |new - reference| / max |reference|,
# and its reason.  The CSV prints 12 significant digits, so a roundoff move
# can flip a value's last digit: up to 1e-11 of the value.
TOLERANCES = {
    # tau and the swept chi or drive come from the config, not from a computation
    "abscissa": (0.0, "the sample times and sweep values are parsed and spaced, never computed"),
    # one block solve (or one eigvalsh) per value and nothing to amplify its
    # roundoff: the last printed digit
    "steady": (1e-11, "one direct solve or eigvalsh per value; only the last printed digit may flip"),
    # a propagated state's roundoff grows through the map's 10-11 products and
    # its squarings; n_eff is the root of dF/dn, which a 1e-14 move of every
    # state moves by at most 7.5e-13
    "relaxation": (1e-10, "propagated through the squared sample map, then a Newton root of dF/dn"),
    # the derivative's roundoff passes through the rank-floored eigendecomposition
    "fisher": (1e-10, "propagated state and tangent, then an eigendecomposition or an outcome map"),
}


# A certificate's cutoff and deciding point must match exactly: a host whose
# roundoff flips a certified cutoff shows as a named mismatch, not as a
# column drift.  Its leakage is a steady state's top-two-level population and
# takes the "steady" tolerance, relative.  Its QFI change is already a
# relative difference of two steady-state QFIs, so their roundoff moves it by
# an absolute amount: 1e-13 is a millionth of its 1e-7 limit.
QFI_CHANGE_TOL = 1e-13


def column_class(name):
    """The tolerance class of a CSV column."""
    if name in ("gamma_t", "chi", "drive"):
        return "abscissa"
    if name in ("purity", "photon_number", "var_gap"):
        return "steady"
    if name in ("n_eff", "fidelity_at_opt"):
        return "relaxation"
    if name.startswith(("qfi", "cfi")):
        return "fisher"
    raise KeyError(f"no tolerance class for column {name!r}")


def read_columns(path):
    """A figure CSV's columns, by name, as float arrays."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    names = lines[0].split(",")
    values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: values[:, k] for k, name in enumerate(names)}


def reproduce(name, out_dir):
    """Run a preset into ``out_dir``; returns its run report and its record
    (certificate and CSV columns), the certificate caught as the config makes it."""
    certify, caught = config.certify_cutoff, []

    def spy(*args, **kwargs):
        caught.append(certify(*args, **kwargs))
        return caught[-1]

    config.certify_cutoff = spy
    try:
        report = reproduce_figure(name, out_dir=str(out_dir))
    finally:
        config.certify_cutoff = certify
    certificate = dataclasses.asdict(caught[0]) if caught else None
    return report, {"certificate": certificate, "columns": read_columns(Path(out_dir) / f"{name}.csv")}


def certificate_moves(got, ref):
    """A certificate's (leakage, QFI change) moves against the reference's:
    relative and absolute; raises AssertionError if one of the two is null,
    or if the cutoff or the deciding point differs."""
    assert (got is None) == (ref is None), (got, ref)
    if got is None:
        return 0.0, 0.0
    assert (got["n_cut"], got["point_index"]) == (ref["n_cut"], ref["point_index"]), (got, ref)
    return abs(got["leakage"] / ref["leakage"] - 1.0), abs(got["qfi_change"] - ref["qfi_change"])


def column_moves(reference, records):
    """Each column's largest move relative to its largest reference magnitude,
    ``{(preset, column): move}``; raises AssertionError on a missing preset or
    column, a changed column order or length, or a certificate out of
    tolerance."""
    assert list(records) == list(reference), "the presets differ from the reference's"
    moves = {}
    for name, record in records.items():
        ref = reference[name]
        leakage, qfi_change = certificate_moves(record["certificate"], ref["certificate"])
        assert leakage <= TOLERANCES["steady"][0] and qfi_change <= QFI_CHANGE_TOL, (name, leakage, qfi_change)
        assert list(record["columns"]) == list(ref["columns"]), (name, list(record["columns"]))
        for column, values in record["columns"].items():
            expected = np.asarray(ref["columns"][column], dtype=float)
            assert values.shape == expected.shape, (name, column, values.shape)
            scale = np.abs(expected).max() or 1.0
            moves[name, column] = float(np.abs(values - expected).max() / scale)
    return moves


def out_of_tolerance(moves):
    """The moves above their class's tolerance, ``{(preset, column): (move, tolerance)}``."""
    bad = {}
    for (name, column), move in moves.items():
        tol = TOLERANCES[column_class(column)][0]
        if not move <= tol:
            bad[name, column] = (move, tol)
    return bad


def render_moves(moves):
    """One line per column: preset, column, class, largest relative move and tolerance."""
    lines = []
    for (name, column), move in moves.items():
        cls = column_class(column)
        lines.append(f"{name:6s} {column:18s} {cls:10s} {move:.2e} (tolerance {TOLERANCES[cls][0]:.0e})")
    return "\n".join(lines)


def load_reference():
    return json.loads(REFERENCE.read_text())


def write_reference(records):
    """One preset per block and one column per line, floats as ``repr``."""
    blocks = []
    for name, record in records.items():
        columns = ",\n".join(
            f"      {json.dumps(column)}: [{', '.join(repr(float(x)) for x in values)}]"
            for column, values in record["columns"].items()
        )
        blocks.append(
            f'  {json.dumps(name)}: {{\n    "certificate": {json.dumps(record["certificate"])},\n'
            f'    "columns": {{\n{columns}\n    }}\n  }}'
        )
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


def main(argv):
    with tempfile.TemporaryDirectory() as tmp:
        records = {name: reproduce(name, Path(tmp) / name)[1] for name in FIGURE_NAMES}
    if REFERENCE.exists():
        moves = column_moves(load_reference(), records)
        print(render_moves(moves))
        bad = out_of_tolerance(moves)
        print(f"{len(bad)} of {len(moves)} columns out of tolerance")
    if "--write" in argv:
        write_reference(records)
        print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
