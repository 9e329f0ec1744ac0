"""The rotated surface-code family cases at distance 5 (surface-49),
plus the stabilizer generator they are built from."""

from test_rotated_surface import CircuitCases, SyndromeCases, TopologyCases

from repro.topology.library import (
    rotated_surface_checks,
    rotated_surface_layout,
)


class TestRotatedSurfaceGenerator:
    def test_distance3_reproduces_surface17_tables(self):
        """At d=3 the generator gives the hand-written surface-17
        stabilizers, numbered differently within each group — which is
        why the distance-3 layout keeps its own address map."""
        z_checks, x_checks = rotated_surface_checks(3)
        layout = rotated_surface_layout(3)
        assert set(z_checks) | set(x_checks) == set(range(9, 17))
        assert sorted(z_checks.values()) == sorted(layout.z_checks.values())
        assert sorted(x_checks.values()) == sorted(layout.x_checks.values())
        assert z_checks != layout.z_checks

    def test_distance5_counts(self):
        z_checks, x_checks = rotated_surface_checks(5)
        assert len(z_checks) == 12
        assert len(x_checks) == 12
        weights = sorted(len(data) for checks in (z_checks, x_checks)
                         for data in checks.values())
        assert weights.count(2) == 8       # boundary checks
        assert weights.count(4) == 16      # bulk plaquettes

    def test_stabilizers_commute(self):
        """Every Z check must share an even number of qubits with every
        X check — the commutation condition of the stabilizer group."""
        for distance in (3, 5):
            layout = rotated_surface_layout(distance)
            for z_data in layout.z_checks.values():
                for x_data in layout.x_checks.values():
                    assert len(set(z_data) & set(x_data)) % 2 == 0


class TestSurface49Topology(TopologyCases):
    distance = 5


class TestSurface49Circuit(CircuitCases):
    distance = 5

    def test_compiles_and_assembles_on_the_192bit_instantiation(self):
        self.check_compiles_and_assembles()


class TestSyndrome49(SyndromeCases):
    distance = 5
