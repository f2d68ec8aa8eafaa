//! Reconfiguration under load, across the whole stack.

use mobigate::core::events::ContextEvent;
use mobigate::core::EventKind;
use mobigate::mime::MimeMessage;
use mobigate::testbed::{Testbed, TestbedConfig};
use std::time::Duration;

const APP: &str = r#"
main stream reconf {
    streamlet a = new-streamlet (redirector);
    streamlet out = new-streamlet (communicator);
    streamlet comp = new-streamlet (text_compress);
    connect (a.po, out.pi);
    when (LOW_BANDWIDTH) {
        insert (a.po, out.pi, comp);
    }
}
"#;

#[test]
fn no_message_lost_across_event_reconfiguration() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(APP).unwrap();

    let n = 300usize;
    let stream2 = stream.clone();
    let server_raise = {
        let raised = std::sync::atomic::AtomicBool::new(false);
        move |i: usize| {
            if i == n / 2 && !raised.swap(true, std::sync::atomic::Ordering::AcqRel) {
                stream2.handle_event(&ContextEvent::broadcast(EventKind::LowBandwidth));
            }
        }
    };
    for i in 0..n {
        server_raise(i);
        stream
            .post_input(MimeMessage::text(format!("msg-{i} {}", "pad ".repeat(50))))
            .unwrap();
    }

    let mut got = 0usize;
    while got < n {
        match tb.client().recv(Duration::from_secs(10)) {
            Some(_) => got += 1,
            None => break,
        }
    }
    assert_eq!(got, n, "every message must survive the live insert");
    // The compressor actually joined the path.
    let comp = stream.instance("comp").expect("compressor live");
    assert!(
        comp.stats().processed > 0,
        "compressor processed part of the flow"
    );
    tb.shutdown();
}

/// Fig 7-7's splice: `comp` is declared in the main body (so its ports are
/// exported to the stream boundary at deploy time) and inserted by the
/// event. Once spliced, its output must feed only the link path — a stale
/// `__egress` binding would copy every compressed text to an egress that
/// nothing drains until the copies fill it and each emission waits out
/// Figure 6-9's `T`.
#[test]
fn spliced_streamlet_output_is_not_copied_to_egress() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(APP).unwrap();
    stream.handle_event(&ContextEvent::broadcast(EventKind::LowBandwidth));

    let n = 400usize;
    for i in 0..n {
        stream
            .post_input(MimeMessage::text(format!(
                "splice-{i} {}",
                "pad ".repeat(50)
            )))
            .unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut got = 0usize;
    while got < n && std::time::Instant::now() < deadline {
        if let Some(m) = tb.client().recv(Duration::from_millis(200)) {
            assert!(
                m.body.starts_with(b"splice-"),
                "client got the original text"
            );
            got += 1;
        }
    }
    assert_eq!(got, n, "every text must reach the client promptly");
    assert!(
        stream.instance("comp").unwrap().stats().processed >= n as u64,
        "every text went through the compressor"
    );
    assert!(
        !stream.debug_depths().contains("egress:"),
        "nothing may pile up on the stream egress: {}",
        stream.debug_depths()
    );
    assert!(stream.take_output(Duration::from_millis(50)).is_none());
    tb.shutdown();
}

#[test]
fn eq_7_1_components_sum_below_total() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(APP).unwrap();
    let stats = stream
        .insert_streamlet(("a", "po"), ("out", "pi"), "mid", "redirector")
        .unwrap();
    // T = Σ s_i + n·c + Σ a_i — the measured components are disjoint phases
    // of the same wall interval, so their sum bounds the total from below.
    let sum = stats.suspension_time + stats.channel_time + stats.activation_time;
    assert!(
        sum <= stats.total,
        "components {sum:?} exceed total {:?}",
        stats.total
    );
    assert_eq!(stats.suspensions, 1);
    assert_eq!(stats.activations, 1);
    assert!(stats.channel_ops >= 4);
    tb.shutdown();
}

#[test]
fn repeated_insert_remove_cycles_stay_healthy() {
    let tb = Testbed::new(TestbedConfig::fast());
    let stream = tb.deploy_with_defs(APP).unwrap();
    for round in 0..10 {
        let name = format!("cycle{round}");
        stream
            .insert_streamlet(("a", "po"), ("out", "pi"), &name, "redirector")
            .unwrap();
        stream
            .post_input(MimeMessage::text(format!("round {round}")))
            .unwrap();
        assert!(
            tb.client().recv(Duration::from_secs(5)).is_some(),
            "flow must work with {name} inserted"
        );
        stream
            .remove_streamlet(&name, Duration::from_secs(2))
            .unwrap();
        // Removing the splice leaves a -> ? and ? -> out disconnected;
        // re-establish the direct path for the next round.
        let reconnect = stream.reconfigure(&[mobigate::mcl::config::ReconfigAction::Connect {
            from: ("a".into(), "po".into()),
            to: ("out".into(), "pi".into()),
            channel: stream
                .connections()
                .first()
                .map(|c| c.channel.clone())
                .unwrap_or_else(|| "__chan0".into()),
        }]);
        assert_eq!(reconnect.errors, 0, "round {round} reconnect failed");
        stream
            .post_input(MimeMessage::text("direct again"))
            .unwrap();
        assert!(tb.client().recv(Duration::from_secs(5)).is_some());
    }
    tb.shutdown();
}

#[test]
fn reconfiguration_time_grows_with_insert_count() {
    // Figure 7-6's shape at integration level: inserting 20 streamlets
    // costs more than inserting 2 (each insert pays suspend + rewire +
    // activate).
    let measure = |count: usize| {
        let tb = Testbed::new(TestbedConfig::fast());
        let stream = tb.deploy_with_defs(APP).unwrap();
        let mut total = Duration::ZERO;
        let mut upstream = ("a".to_string(), "po".to_string());
        for i in 0..count {
            let name = format!("r{i}");
            let stats = stream
                .insert_streamlet(
                    (&upstream.0, &upstream.1),
                    ("out", "pi"),
                    &name,
                    "redirector",
                )
                .unwrap();
            total += stats.total;
            upstream = (name, "po".to_string());
        }
        tb.shutdown();
        total
    };
    let small = measure(2);
    let large = measure(20);
    assert!(
        large > small,
        "20 inserts ({large:?}) must cost more than 2 ({small:?})"
    );
}
