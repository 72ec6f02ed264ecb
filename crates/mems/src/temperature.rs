//! Test-insertion temperatures.

/// The three temperatures at which the paper tests the accelerometer
/// (Section 5.2): hot and cold insertions are expensive because the chip must
/// soak to a steady-state temperature, which is exactly the cost the
/// compaction flow removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestTemperature {
    /// -40 °C cold insertion.
    Cold,
    /// 27 °C room-temperature insertion.
    Room,
    /// +80 °C hot insertion.
    Hot,
}

impl TestTemperature {
    /// All three insertions in the order cold, room, hot.
    pub fn all() -> [TestTemperature; 3] {
        [TestTemperature::Cold, TestTemperature::Room, TestTemperature::Hot]
    }

    /// Chip temperature in degrees Celsius.
    pub fn celsius(self) -> f64 {
        match self {
            TestTemperature::Cold => -40.0,
            TestTemperature::Room => 27.0,
            TestTemperature::Hot => 80.0,
        }
    }

    /// Offset from the room-temperature reference in kelvin.
    pub fn delta_from_room(self) -> f64 {
        self.celsius() - TestTemperature::Room.celsius()
    }

    /// Short label used in reports ("-40C", "27C", "80C").
    pub fn label(self) -> &'static str {
        match self {
            TestTemperature::Cold => "-40C",
            TestTemperature::Room => "27C",
            TestTemperature::Hot => "80C",
        }
    }

    /// Relative cost of applying one specification test at this temperature,
    /// normalised to a room-temperature test.  Temperature insertions need a
    /// thermal soak, which the paper reports as dominating test cost ("this
    /// level of compaction would reduce test cost by more than half").
    pub fn relative_test_cost(self) -> f64 {
        match self {
            TestTemperature::Room => 1.0,
            TestTemperature::Hot => 2.5,
            TestTemperature::Cold => 3.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperatures_match_the_paper() {
        assert_eq!(TestTemperature::Cold.celsius(), -40.0);
        assert_eq!(TestTemperature::Room.celsius(), 27.0);
        assert_eq!(TestTemperature::Hot.celsius(), 80.0);
        assert_eq!(TestTemperature::Room.delta_from_room(), 0.0);
        assert_eq!(TestTemperature::Hot.delta_from_room(), 53.0);
        assert_eq!(TestTemperature::Cold.delta_from_room(), -67.0);
    }

    #[test]
    fn labels_and_costs_are_consistent() {
        for t in TestTemperature::all() {
            assert!(!t.label().is_empty());
            assert!(t.relative_test_cost() >= 1.0);
        }
        assert!(
            TestTemperature::Cold.relative_test_cost() > TestTemperature::Room.relative_test_cost()
        );
    }
}
