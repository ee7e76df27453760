//! End-to-end acceptance test for the exporter (ISSUE §observability):
//! build the dLSM scenario the way `db_bench --metrics-addr 127.0.0.1:0`
//! does, run a short workload, and scrape `GET /metrics` over real TCP.
//! The exposition must carry the per-shard per-level gauges, the memory
//! node's remote-region utilization, and histogram quantiles — and be
//! well-formed text exposition (every sample line's name carries a
//! `# TYPE`).

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dlsm_bench::harness::run_fill;
use dlsm_bench::setup::{build_scenario, SystemKind};
use dlsm_bench::workload::WorkloadSpec;
use dlsm_metrics::MetricsRegistry;
use rdma_sim::NetworkProfile;

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to exporter");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn db_bench_style_scrape_exposes_the_whole_system() {
    let spec = WorkloadSpec { num_kv: 4_000, key_size: 20, value_size: 120 };
    let sc = build_scenario(
        SystemKind::Dlsm { lambda: 2 },
        &spec,
        NetworkProfile::instant(),
        2,
    );
    run_fill(sc.engine.as_ref(), &spec, 2);
    sc.engine.wait_until_quiescent();

    // Exactly db_bench's wiring: engine + every memory node on one registry.
    let reg = MetricsRegistry::new();
    sc.engine.register_metrics(&reg);
    for s in &sc.servers {
        s.register_metrics(&reg);
    }
    let srv = dlsm_metrics::serve(reg, "127.0.0.1:0").expect("ephemeral bind");
    let addr = srv.local_addr();

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");

    // Per-shard, per-level LSM shape (labels render sorted by key).
    assert!(body.contains(r#"dlsm_level_files{level="0",shard="0"}"#), "{body}");
    assert!(body.contains(r#"dlsm_level_score{level="1",shard="1"}"#), "{body}");
    assert!(body.contains(r#"dlsm_live_extent_bytes{origin="compute",shard="0"}"#), "{body}");
    // Memory-node remote-region utilization.
    assert!(body.contains("memnode_region_bytes{node="), "{body}");
    assert!(body.contains("memnode_compaction_zone_used_bytes{node="), "{body}");
    // Counters and histogram quantiles from telemetry.
    assert!(body.contains("dlsm_puts_total"), "{body}");
    assert!(body.contains(r#"dlsm_op_latency_ns_p50{class="put""#), "{body}");
    assert!(body.contains(r#"dlsm_op_latency_ns_bucket{class="put""#), "{body}");
    assert!(body.contains(r#"le="+Inf""#), "{body}");

    // Every sample's metric name is declared by a # TYPE line.
    let mut typed = HashSet::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.insert(rest.split(' ').next().unwrap().to_string());
        }
    }
    for line in body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let name = line.split(['{', ' ']).next().unwrap();
        let declared = typed.contains(name)
            || ["_bucket", "_sum", "_count"].iter().any(|suf| {
                name.strip_suffix(suf).is_some_and(|base| typed.contains(base))
            });
        assert!(declared, "sample {name} has no # TYPE declaration");
    }

    // 404 for unknown paths; the exporter stays up for a second scrape.
    let (head, _) = http_get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    let (head, body2) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body2.contains("dlsm_level_files"), "second scrape");

    drop(srv);
    sc.shutdown();
}
