import numpy as np
import pytest
from hypothesis import strategies as st

from semwalk.encoding import EncodedVector
from semwalk.semantics import parse_taxonomy

from _oracles import (
    centred_broadcast_log_gaussians,
    einsum_fisher_gradients,
    full_sort_nearest,
    loop_nearest_centers,
    mask_update_centers,
)

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


# Manifest fields: no tab or line break, no surrounding whitespace, not
# empty, and (for the first field) no leading "#" that would make a comment.
MANIFEST_FIELDS = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1,
    max_size=6,
).filter(lambda s: s == s.strip() and not s.startswith("#"))


# Meaning ids that are not of the form <verb>.v.<s> with s >= 1.
BAD_MEANINGS = ["putv1", "put.v.0", "put.v.x", ".v.1", "put.n.1"]


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


def stacked_einsum_fisher_gradients(gmm, descriptors):
    """`einsum_fisher_gradients` from `_fisher_gradients`'s arguments:
    the oracle per video of a videos x rows x dim stack."""
    if descriptors.ndim == 2:
        return einsum_fisher_gradients(gmm, descriptors)
    pairs = [einsum_fisher_gradients(gmm, video) for video in descriptors]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


def rowwise_full_sort_nearest(queries, stacked, k):
    """`full_sort_nearest` from `shortlist`'s arguments: the oracle per
    row of the queries stack."""
    return [
        full_sort_nearest(EncodedVector(values, queries.kind), stacked, k)
        for values in queries.values
    ]


def columns_mask_update_centers(columns, labels, centers):
    """`mask_update_centers` from `_update_centers`'s arguments: the
    pool stored dim x points, transposed back to points x dim."""
    mask_update_centers(np.ascontiguousarray(columns.T), labels, centers)


def oracle_nearest_centers(lifted, centers, out=None):
    """`loop_nearest_centers` from `_nearest_centers`'s arguments: the
    points are the lifted ones less their column of ones.  A
    videos x rows x (dim + 1) stack gets the oracle per video."""
    points = lifted[0][..., :-1]
    if points.ndim == 3:
        pairs = [loop_nearest_centers(p, centers) for p in points]
        return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])
    return loop_nearest_centers(points, centers)
