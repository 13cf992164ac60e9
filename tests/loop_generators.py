"""The reference-mesh generators as loops over midpoints, vertices and faces.

``make_icosphere``, ``make_torus`` and ``make_grid`` build their meshes
with whole-array operations. These are the loops they replaced, one
midpoint, vertex or face at a time; the array versions must give the
same faces and coordinates, bit for bit. Arguments are not validated.
"""

import math

import numpy as np

import metricmesh as mm


def loop_icosphere(subdivisions):
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [np.array(p, dtype=np.float64) / math.sqrt(1.0 + phi * phi) for p in raw]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        midpoint = {}

        def mid(u, v):
            key = (u, v) if u < v else (v, u)
            idx = midpoint.get(key)
            if idx is None:
                m = verts[u] + verts[v]
                m /= np.linalg.norm(m)
                verts.append(m)
                idx = len(verts) - 1
                midpoint[key] = idx
            return idx

        new_faces = []
        for i, j, k in faces:
            a, b, c = mid(i, j), mid(j, k), mid(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces
    coords = np.vstack(verts)
    return mm.Mesh(len(verts), np.array(faces, dtype=np.int64)), mm.Embedding(coords)


def loop_torus(nu, nv, major_radius, minor_radius):
    coords = np.empty((nu * nv, 3), dtype=np.float64)
    for i in range(nu):
        theta = 2.0 * math.pi * i / nu
        for j in range(nv):
            phi = 2.0 * math.pi * j / nv
            ring = major_radius + minor_radius * math.cos(phi)
            coords[i * nv + j] = (
                ring * math.cos(theta),
                ring * math.sin(theta),
                minor_radius * math.sin(phi),
            )
    faces = []
    for i in range(nu):
        i1 = (i + 1) % nu
        for j in range(nv):
            j1 = (j + 1) % nv
            v00 = i * nv + j
            v10 = i1 * nv + j
            v11 = i1 * nv + j1
            v01 = i * nv + j1
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return mm.Mesh(nu * nv, np.array(faces, dtype=np.int64)), mm.Embedding(coords)


def loop_grid(nx, ny, spacing):
    xs = np.arange(nx, dtype=np.float64) * spacing
    ys = np.arange(ny, dtype=np.float64) * spacing
    coords = np.zeros((nx * ny, 3), dtype=np.float64)
    coords[:, 0] = np.tile(xs, ny)
    coords[:, 1] = np.repeat(ys, nx)
    faces = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            v00 = j * nx + i
            v10 = j * nx + i + 1
            v01 = (j + 1) * nx + i
            v11 = (j + 1) * nx + i + 1
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return mm.Mesh(nx * ny, np.array(faces, dtype=np.int64)), mm.Embedding(coords)
