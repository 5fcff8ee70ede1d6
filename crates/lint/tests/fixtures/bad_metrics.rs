//! Fixture: observability violations.

/// Registers metrics with a bad name and an undeclared layer.
pub fn emit(obs: &mut Obs) {
    obs.counter_add(ObsLayer::Device, "CamelCaseName", 1);
    obs.gauge_set(UNDECLARED, "fine_name", 2);
    obs.latency(ObsLayer::Store, "get_latency_ns", 3);
}
