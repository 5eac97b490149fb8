//! Request encoding shared by the serve conformance suites.

use dpss_traces::TraceSet;

/// The `tick` request line carrying coarse frame `frame` of `traces`,
/// every value in its shortest round-tripping decimal form (what the
/// committed stream fixture holds).
pub fn tick_line(traces: &TraceSet, frame: usize) -> String {
    let t = traces.clock.slots_per_frame();
    let csv = |value: &dyn Fn(usize) -> f64| {
        let slots = (frame * t..(frame + 1) * t).map(|i| value(i).to_string());
        slots.collect::<Vec<_>>().join(",")
    };
    format!(
        "{{\"cmd\":\"tick\",\"frame\":{frame},\"price_lt\":{},\"price_rt\":[{}],\
         \"demand_ds\":[{}],\"demand_dt\":[{}],\"renewable\":[{}]}}",
        traces.price_lt[frame].dollars_per_mwh(),
        csv(&|i| traces.price_rt[i].dollars_per_mwh()),
        csv(&|i| traces.demand_ds[i].mwh()),
        csv(&|i| traces.demand_dt[i].mwh()),
        csv(&|i| traces.renewable[i].mwh()),
    )
}
