"""The rotated surface-code family cases at distance 3 (surface-17)."""

from test_rotated_surface import CircuitCases, SyndromeCases, TopologyCases


class TestSurface17Topology(TopologyCases):
    distance = 3


class TestSurface17Circuit(CircuitCases):
    distance = 3

    def test_compiles_and_assembles_on_the_64bit_instantiation(self):
        self.check_compiles_and_assembles()


class TestSyndrome17(SyndromeCases):
    distance = 3
