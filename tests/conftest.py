import numpy as np
import pytest

from semwalk.encoding import EncodedVector
from semwalk.semantics import parse_taxonomy

from _oracles import centred_broadcast_log_gaussians, expanded_squared_distances

# Six meanings: one synonym pair, one hyponym child, and a wash family
# with a synset pair plus a hyponym child.
TAXONOMY_TEXT = """\
put.v.1\tsyn.put\t-
place.v.1\tsyn.put\t-
put_down.v.1\tsyn.putdown\tput.v.1
wash.v.3\tsyn.wash\t-
wash_up.v.3\tsyn.wash\t-
rinse.v.1\tsyn.rinse\twash.v.3
"""


@pytest.fixture
def taxonomy(tmp_path):
    path = tmp_path / "taxonomy.tsv"
    path.write_text(TAXONOMY_TEXT, encoding="utf-8")
    return parse_taxonomy(path)


def vec(values, kind="fv"):
    return EncodedVector(values=np.asarray(values, dtype=np.float64), kind=kind)


def write_manifest(path, rows):
    """rows: list of (segment_id, person, verb, meaning_or_None, descriptor)."""
    lines = []
    for segment_id, person, verb, meaning, descriptor in rows:
        lines.append(
            "\t".join([segment_id, person, verb, meaning or "-", descriptor])
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# Adapters: oracles from `_oracles` with the signatures of the library
# functions they stand in for, to be patched over them.


def components_major_broadcast(centred, means, variances):
    """`centred_broadcast_log_gaussians` in the E-step's layout: the
    oracle takes points x dim and returns points x components, the
    E-step keeps dim x points and components x points."""
    centre, xt, xt_sq = centred
    return centred_broadcast_log_gaussians((centre, xt.T, xt_sq.T), means, variances).T


def expanded_distances_from_terms(terms, centers, out=None):
    """`expanded_squared_distances` from `_squared_distances`'s
    arguments; halving 2x is exact, so this recovers the points."""
    return expanded_squared_distances(terms[0] / 2.0, centers)

