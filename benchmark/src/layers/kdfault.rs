//! `kdfault`: what a hook site pays to ask the ambient injector whether
//! anything was injected, with an empty plan.

use std::time::Duration;

use super::ns_per_call;

pub fn run(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let injector = kdfault::Injector::new();
    let _scope = kdfault::enter(&injector);
    out.push((
        "kdfault.hook_ns_per_check",
        ns_per_call(budget, || {
            std::hint::black_box(kdfault::current().injected_total());
        }),
    ));
}
