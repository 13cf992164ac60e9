import numpy as np
import pytest

import metricmesh as mm
from metricmesh import optimize


@pytest.fixture(scope="session")
def icosphere0():
    return mm.make_icosphere(0)


@pytest.fixture(scope="session")
def icosphere1():
    return mm.make_icosphere(1)


@pytest.fixture(scope="session")
def icosphere2():
    return mm.make_icosphere(2)


def feasible_jittered(mesh, embedding, seed, amount, margin=1e-6, floor=1e-9):
    """Random feasible metric: jittered extrinsic lengths pushed back into
    the feasible set."""
    rng = np.random.default_rng(seed)
    metric = mm.MetricField.from_embedding(mesh, embedding).with_jitter(rng, amount)
    return mm.feasibility_projection(mesh, metric, margin, floor)


def two_triangle_strip():
    """Two faces sharing the edge (1, 2); vertices 0 and 3 on either side."""
    faces = np.array([[0, 1, 2], [1, 2, 3]], dtype=np.int64)
    return mm.Mesh(4, faces)


# The weights of the flow and fit workloads, and small seeded cases for them.
FLOW = mm.LossConfig(lambda_=1.0, p=1.5, mu_dirichlet=0.1, mu_volume=1.0)
FIT = mm.LossConfig(lambda_=1e-3, p=2.0, mu_iso=1e-2)


def flow_case(seed=3):
    """(mesh, embedding, metric): icosphere(2) with its lengths jittered by 0.5, for FLOW."""
    mesh, emb = mm.make_icosphere(2)
    metric = mm.MetricField.from_embedding(mesh, emb)
    return mesh, emb, metric.with_jitter(np.random.default_rng(seed), 0.5)


def fit_case(seed=4, n=120):
    """(mesh, embedding, dataset, metric): n ellipsoid points and a jittered start, for FIT."""
    mesh, emb = mm.make_icosphere(2)
    emb = mm.Embedding(emb.coords * 2.0 ** (1.0 / 3.0))
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, 2] *= 2.0
    metric = mm.MetricField.from_embedding(mesh, emb).with_jitter(rng, 0.1)
    return mesh, emb, mm.Dataset(pts), metric


def loss_gradient(mesh, metric, embedding, dataset, config, freeze_embedding=False):
    """One-shot (value, length gradient, coordinate gradient) of the descent's loss.

    The value is the true numeric loss; the gradients are its closed form
    with the closest-point faces and barycentric coordinates held fixed.
    """
    proj = None
    if dataset is not None:
        proj = mm.project_dataset_arrays(dataset.points, embedding, mesh)
    losses = optimize.total_loss(mesh, metric, embedding, dataset, config, projections=proj)
    g_len, g_coord = optimize._gradient(
        mesh, metric, embedding, dataset, config, proj, losses, freeze_embedding
    )
    return losses.total, g_len, g_coord
