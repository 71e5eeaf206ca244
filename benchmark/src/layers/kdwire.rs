//! `kdwire`: encode and decode of one 512 B produce request.

use std::time::Duration;

use super::ns_per_call;

pub fn run(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let batch =
        kdstorage::record::single_record_batch(7, &kdstorage::Record::value(vec![0x5Au8; 512]));
    let request = kdwire::Request::Produce {
        topic: "kdmark".to_string(),
        partition: 0,
        acks: 2,
        batch,
    };
    let mut frame = Vec::new();
    out.push((
        "kdwire.encode_ns_per_msg",
        ns_per_call(budget, || {
            frame.clear();
            std::hint::black_box(&request).encode_into(&mut frame);
            std::hint::black_box(frame.len());
        }),
    ));
    let encoded = request.encode();
    out.push((
        "kdwire.decode_ns_per_msg",
        ns_per_call(budget, || {
            let r = kdwire::Request::decode(std::hint::black_box(&encoded)).expect("decode");
            std::hint::black_box(r);
        }),
    ));
}
