"""DVFS table (paper Table I), battery governor, power model."""

import pytest

from repro.hardware.battery import Battery
from repro.hardware.dvfs import BatteryGovernor, DVFSTable, ODROID_XU3_LEVELS, VFLevel
from repro.hardware.power import PowerModel


class TestTableI:
    """The exact values of the paper's Table I."""

    PAPER = {
        "l1": (400, 916.25),
        "l2": (600, 917.5),
        "l3": (800, 992.5),
        "l4": (1000, 1066.25),
        "l5": (1200, 1141.25),
        "l6": (1400, 1240.0),
    }

    def test_six_levels(self):
        assert len(ODROID_XU3_LEVELS) == 6

    @pytest.mark.parametrize("name", list(PAPER))
    def test_level_values(self, name):
        table = DVFSTable()
        level = table[name]
        freq, vol = self.PAPER[name]
        assert level.freq_mhz == freq
        assert level.voltage_mv == vol

    def test_unit_conversions(self):
        l6 = DVFSTable()["l6"]
        assert l6.freq_hz == 1.4e9
        assert l6.voltage_v == pytest.approx(1.24)


class TestDVFSTable:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            DVFSTable([VFLevel("a", 1000, 1.0), VFLevel("b", 500, 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DVFSTable([])

    def test_subset_paper_levels(self):
        sub = DVFSTable().subset(["l3", "l4", "l6"])
        assert sub.names() == ["l3", "l4", "l6"]

    def test_index_and_name_access(self):
        table = DVFSTable()
        assert table[0].name == "l1"
        assert table["l2"].freq_mhz == 600

    def test_iteration(self):
        assert [lv.name for lv in DVFSTable()] == [f"l{i}" for i in range(1, 7)]


class TestGovernor:
    def _gov(self):
        return BatteryGovernor(DVFSTable().subset(["l3", "l4", "l6"]), (0.15, 0.40))

    def test_full_battery_top_level(self):
        assert self._gov().level_for(1.0).name == "l6"

    def test_mid_battery_middle_level(self):
        assert self._gov().level_for(0.3).name == "l4"

    def test_low_battery_energy_saving(self):
        assert self._gov().level_for(0.1).name == "l3"

    def test_boundaries_inclusive_low(self):
        gov = self._gov()
        assert gov.level_for(0.15).name == "l3"
        assert gov.level_for(0.40).name == "l4"

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            self._gov().level_for(1.5)

    def test_threshold_count_checked(self):
        with pytest.raises(ValueError):
            BatteryGovernor(DVFSTable().subset(["l3", "l6"]), (0.1, 0.2))

    def test_thresholds_must_increase(self):
        with pytest.raises(ValueError):
            BatteryGovernor(DVFSTable().subset(["l3", "l4", "l6"]), (0.4, 0.15))

    def test_thresholds_strictly_inside(self):
        with pytest.raises(ValueError):
            BatteryGovernor(DVFSTable().subset(["l3", "l4", "l6"]), (0.0, 0.5))

    def test_energy_fractions_sum_to_one(self):
        fr = self._gov().energy_fractions()
        assert sum(fr) == pytest.approx(1.0)
        assert fr == [pytest.approx(0.15), pytest.approx(0.25), pytest.approx(0.60)]


class TestPowerModel:
    def test_higher_level_higher_power(self):
        pm = PowerModel()
        table = DVFSTable()
        powers = [pm.power_w(lv) for lv in table]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_energy_per_cycle_decreases_at_lower_levels(self):
        """The physics of DVFS: V^2 scaling makes low levels cheaper/cycle."""
        pm = PowerModel()
        table = DVFSTable()
        epc = [pm.power_w(lv) / lv.freq_hz for lv in table]
        assert epc[0] < epc[-1]

    def test_dynamic_scales_with_v_squared_f(self):
        pm = PowerModel(leakage_w_per_v=0.0)
        l3, l6 = DVFSTable()["l3"], DVFSTable()["l6"]
        ratio = pm.power_w(l6) / pm.power_w(l3)
        expected = (1.24 ** 2 * 1400) / (0.9925 ** 2 * 800)
        assert ratio == pytest.approx(expected)

    def test_energy_linear_in_time(self):
        pm = PowerModel()
        l4 = DVFSTable()["l4"]
        assert pm.energy_j(l4, 2.0) == pytest.approx(2 * pm.energy_j(l4, 1.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PowerModel().energy_j(DVFSTable()["l1"], -1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(kappa_f=0.0)
        with pytest.raises(ValueError):
            PowerModel(leakage_w_per_v=-1.0)


class TestBattery:
    def test_draw_and_fraction(self):
        b = Battery(100.0)
        assert b.draw(25.0)
        assert b.fraction == pytest.approx(0.75)

    def test_overdraw_depletes(self):
        b = Battery(10.0)
        assert not b.draw(50.0)
        assert b.depleted
        assert b.remaining_j == 0.0

    def test_negative_draw_rejected(self):
        with pytest.raises(ValueError):
            Battery(10.0).draw(-1.0)

    def test_budget_positive(self):
        with pytest.raises(ValueError):
            Battery(0.0)

    def test_default_budget_from_calibration(self):
        from repro.hardware import calibration

        assert Battery().budget_j == calibration.BATTERY_BUDGET_J
