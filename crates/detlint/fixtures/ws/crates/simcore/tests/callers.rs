//! Calls every fixture `pub fn` except the `dead-pub` subjects in
//! `src/dead_pub.rs`, so the corpus's other files scan clean of that rule.

#[test]
fn fixture_api_has_callers() {
    let _ = "never_called";
    coordinator();
    let reg = FleetRegistry::default();
    reg.bad_pick_host(0);
    reg.bad_multicast_order();
    reg.replica_count();
    bad_unwrap(None);
    bad_iter(Default::default());
    paced_now();
    let loads = Registry::default();
    loads.bad_sum();
    loads.waived_sum();
    oops(None);
    shipped();
    bad_now();
    waived_now();
    waived_expect(None);
    missing_justification(None);
    bad_hasher();
    let tables = Tables::default();
    tables.bad_name_order();
    waived_seed();
    shared_counter();
    arc_is_fine(Default::default());
    let pair = Pair::default();
    pair.nested_bad();
    pair.nested_waived();
    pair.sequential_ok();
    bad_spawn();
    waived_scope();
    doc_quoted();
    raw_strings();
    block_commented();
    unused_waiver();
    bad_unsafe(std::ptr::null());
    good_unsafe(std::ptr::null());
}
