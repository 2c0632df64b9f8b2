//! Worker lifetime: a threaded `ShardedNetwork` starts its `shards − 1`
//! workers at the first threaded step, starts none after that, and
//! joins them all on drop. The count is read from the process's own
//! thread table, so this binary holds this one test: no other test's
//! threads can move the count.

mod common;

use std::time::{Duration, Instant};

use common::{models, spec_on};
use orion_net::{DimensionOrder, NodeId, Topology};
use orion_shard::ShardedNetwork;

/// The process's thread count, from the `Threads:` line of
/// `/proc/self/status` (`None` where there is no such file).
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

/// Waits (up to a few seconds) for the thread count to read
/// `expected`: a joined thread leaves the table just after its join
/// returns.
fn settles_at(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = threads().expect("readable");
        if now == expected || Instant::now() > deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn two_shards() -> ShardedNetwork {
    let topology = Topology::torus(&[4, 4]).expect("valid");
    let spec = spec_on(topology, 2, DimensionOrder::YFirst);
    let mut net = ShardedNetwork::new(spec, models(5), 2);
    net.set_parallel(true);
    net
}

#[test]
fn workers_start_once_and_are_joined_on_drop() {
    let Some(start) = threads() else {
        return;
    };
    let mut net = two_shards();
    assert_eq!(threads(), Some(start), "building starts no thread");
    net.enqueue_packet(NodeId(0), NodeId(10), true);
    net.step();
    assert_eq!(threads(), Some(start + 1), "one worker for two shards");
    for _ in 0..200 {
        net.step();
    }
    assert_eq!(threads(), Some(start + 1), "no thread started per cycle");
    drop(net);
    assert_eq!(settles_at(start), start, "drop joins the worker");

    for i in 0..200 {
        let mut net = two_shards();
        net.enqueue_packet(NodeId(i % 16), NodeId((i * 7 + 3) % 16), false);
        for _ in 0..3 {
            net.step();
        }
    }
    assert_eq!(settles_at(start), start, "200 networks leave no thread");
}
