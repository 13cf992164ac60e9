"""The bytes of the CSV writers, against rows built with ``outputs.fmt``."""

import numpy as np

import metricmesh as mm
from metricmesh import outputs
from metricmesh.geometry import CurvatureReport

# Values where repr changes form: signed zero, infinity, the least
# subnormal, the switches to exponent form at 1e16 and below 1e-4, a
# shortest form far shorter than the exact value, and the largest float,
# with neighbours on the other side of each switch.
EDGE_VALUES = [
    -0.0, np.inf, 5e-324, 1e16, 9999999999999998.0, 1e-5, 1e-4, 0.1,
    1.7976931348623157e308, 1.0, 123456789.0,
]


def reference(header, rows):
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


class TestCsvBytes:
    def test_distances(self):
        field = mm.DistanceField(source=0, distances=np.array(EDGE_VALUES))
        want = reference(
            outputs.DISTANCES_HEADER,
            ([str(v), outputs.fmt(d)] for v, d in enumerate(field.distances)),
        )
        assert outputs.distances_csv_text(field) == want
        assert want.splitlines()[1:5] == ["0,-0.0", "1,inf", "2,5e-324", "3,1e+16"]
        assert want.splitlines()[5:] == [
            "4,9999999999999998.0", "5,1e-05", "6,0.0001", "7,0.1",
            "8,1.7976931348623157e+308", "9,1.0", "10,123456789.0",
        ]

    def test_curvature(self):
        defect = np.array(EDGE_VALUES)
        area = np.array([1.0, 2.0, 0.5, 3.0, 1e-200, 1e300, 7.0, 0.25, 4.0, 1e-5, 3.0])
        report = CurvatureReport(
            defect=defect, vertex_area=area, face_area=np.ones(1), total_volume=1.0,
            corner_angle=np.ones((1, 3)), face_slack=np.ones(1),
        )
        density = report.defect_density
        assert np.isinf(density[1]) and np.signbit(density[0])
        want = reference(
            outputs.CURVATURE_HEADER,
            (
                [str(v), outputs.fmt(defect[v]), outputs.fmt(area[v]), outputs.fmt(density[v])]
                for v in range(defect.size)
            ),
        )
        assert outputs.curvature_csv_text(report) == want

    def test_lengths(self):
        # lengths are finite and positive: every positive edge value, cycled
        mesh, _ = mm.make_icosphere(0)
        positive = [x for x in EDGE_VALUES if 0.0 < x < np.inf]
        metric = mm.MetricField(np.resize(positive, mesh.edge_count))
        want = reference(
            outputs.LENGTHS_HEADER,
            (
                [str(e), str(mesh.edges[e, 0]), str(mesh.edges[e, 1]), outputs.fmt(metric.lengths[e])]
                for e in range(mesh.edge_count)
            ),
        )
        assert outputs.lengths_csv_text(mesh, metric) == want
        assert want.splitlines()[1] == "0,0,1,5e-324"
