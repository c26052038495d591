"""One small cone of every kind, checked through every kind table.

The builder table (``constructions._BUILDERS``) and the family table
(``decompose._FAMILIES``) must list the same kinds, and each kind must
survive a bit-exact JSON round trip, sample rank-1 points of its span,
reject non-members and, where it has an extreme-ray rule, decompose a
rank-1 member into one atom.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rogcones as rc
from rogcones import jsonio, symlin
from rogcones.constructions import _BUILDERS
from rogcones.decompose import _FAMILIES
from rogcones.errors import InvalidInputError, OracleUnavailableError

from conftest import random_congruence

NO_RAY_RULE = {"ternary_quartic", "moment"}


def _complex_congruence(n):
    rng = np.random.default_rng(n)
    return random_congruence(rng, n) + 1j * random_congruence(rng, n)


def _instances():
    codim = rc.codim1_cone(np.diag([1.0, 2.0, -1.0, -0.5]))
    cones = {
        "full_psd": rc.full_psd_cone(3),
        "diagonal": rc.diagonal_cone(3),
        "hankel": rc.hankel_cone(3, 2),
        "tridiag": rc.tridiagonal_cone(4),
        "chordal": rc.chordal_cone(rc.ChordalGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])),
        "codim1": codim,
        "ternary_quartic": rc.ternary_quartic_cone(),
        "cross_ratio": rc.cross_ratio_cone([0.1, 0.7, 1.5, 2.4]),
        "moment": rc.moment_cone_from_samples(
            None, [[1.0, 0.5], [0.3, 2.0], [1.5, -1.0], [-0.7, 0.2]],
            powers=[[0, 0], [1, 0], [0, 1]]),
        "block_toeplitz": rc.block_toeplitz_cone(3, 1),
        "direct_sum": rc.direct_sum(rc.hankel_cone(3), rc.full_psd_cone(2)),
        "full_ext": rc.full_extension(codim, 5),
        "intertwine": rc.intertwine(rc.full_psd_cone(2), rc.hankel_cone(3),
                                    rc.rank1_glue(None, [1.0, 0.0], None, [0.0, 0.0, 1.0])),
        "transform": rc.apply_congruence(codim, random_congruence(np.random.default_rng(4), 4)),
        "reduce": rc.reduce_nondegenerate(rc.hankel_cone(3))[0],
    }
    for n, m in ((2, 1), (3, 1), (2, 2)):
        cones[f"transform/block_toeplitz({n},{m})"] = rc.apply_congruence(
            rc.block_toeplitz_cone(n, m), _complex_congruence(n * m))
    return cones


CONES = _instances()


def test_tables_list_the_same_kinds():
    kinds = {cone.expr.kind for cone in CONES.values()}
    assert set(_BUILDERS) == set(_FAMILIES) == kinds
    assert len(kinds) == 15


@pytest.mark.parametrize("name", sorted(CONES))
def test_json_round_trip_is_bit_exact(name):
    cone = CONES[name]
    back = jsonio.cone_from_json(json.loads(json.dumps(jsonio.cone_to_json(cone))))
    assert back.expr.kind == cone.expr.kind
    assert back.complex_field == cone.complex_field
    assert np.array_equal(back.span_basis, cone.span_basis)
    assert np.array_equal(back.generators, cone.generators)


@pytest.mark.parametrize("name", sorted(CONES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sampled_ray_lies_in_the_span(name, seed):
    cone = CONES[name]
    x = rc.random_extreme_ray(cone, np.random.default_rng(seed))
    assert x.shape == (cone.n,)
    assert abs(np.linalg.norm(x) - 1.0) < 1e-12
    assert symlin.span_distance(cone.span_basis, symlin.outer(x)) < 1e-8


@pytest.mark.parametrize("name", sorted(CONES))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_rank1_member_decomposes_into_one_atom(name, seed):
    cone = CONES[name]
    x_mat = symlin.outer(rc.random_extreme_ray(cone, np.random.default_rng(seed)))
    if cone.expr.kind in NO_RAY_RULE:
        with pytest.raises(OracleUnavailableError):
            rc.decompose(cone, x_mat)
        return
    dec = rc.decompose(cone, x_mat)
    assert len(dec.atoms) == 1
    atom = dec.atoms[0].matrix()
    assert symlin.span_distance(cone.span_basis, atom) < 1e-7
    assert np.linalg.norm(atom - x_mat) < 1e-7


@pytest.mark.parametrize("name", sorted(CONES))
def test_non_members_are_rejected(name):
    """Every route opens with the membership gate, the peel's included: a
    PSD matrix off the span and minus a member raise InvalidInputError."""
    cone = CONES[name]
    rng = np.random.default_rng(0)
    member = sum(symlin.outer(g) for g in cone.generators)
    off = rng.standard_normal((cone.n, cone.n))
    if np.iscomplexobj(cone.span_basis):
        off = off + 1j * rng.standard_normal((cone.n, cone.n))
    off = symlin.sym(off)
    off -= symlin.span_project(cone.span_basis, off)
    non_members = [-member]
    if np.linalg.norm(off) > 1e-9:  # the full PSD cone spans every matrix
        non_members.append(np.eye(cone.n) + 0.5 * off / np.linalg.norm(off, 2))
    for x_mat in non_members:
        assert not rc.membership(cone, x_mat)
        with pytest.raises(InvalidInputError):
            rc.decompose(cone, x_mat)
