//! A large pinned topology built to shard well: two disjoint router
//! chains between one MPTCP source and destination.
//!
//! The paper's six-node network is too small and too tightly coupled to
//! show parallel speedup — every partition cuts a busy link, and the
//! per-window work per region is a handful of events. This network is the
//! opposite extreme, kept in-tree as the benchmark's "big shardable"
//! scenario (`bench_sim` region-scaling rows):
//!
//! * Two parallel chains of [`CHAIN_HOPS`] routers each (`s—a1—…—a8—d`
//!   and `s—b1—…—b8—d`), one MPTCP subflow per chain. The chains share
//!   only the endpoints, so a mid-chain partition puts each chain's
//!   halves in different regions without coupling the chains themselves.
//! * Every link carries 1 ms of propagation delay except the two
//!   mid-chain links (`a4—a5`, `b4—b5`), which carry [`CUT_DELAY_MS`].
//!   The greedy partitioner contracts cheap links first, so at two
//!   regions the cut lands exactly on the two 5 ms mid-chain links and
//!   the conservative engine gets a 5 ms lookahead window — thousands of
//!   events per region per window at these rates.
//! * Constant-bit-rate cross traffic on each chain (`a2→a7`, `b2→b7`)
//!   keeps interior routers busy so the work is spread along the chain
//!   rather than concentrated at the endpoints.
//!
//! Capacities pin the bottleneck at the first hop (40 and 60 Mbit/s), so
//! MPTCP's aggregate is capped at 100 Mbit/s and the congestion dynamics
//! stay interesting for the whole run.

use crate::scenario::{CrossTraffic, Scenario};
use netsim::{Path, QueueConfig, Topology};
use simbase::{Bandwidth, SimDuration};

/// Routers per chain (not counting the shared endpoints).
pub const CHAIN_HOPS: usize = 8;

/// Propagation delay of the two mid-chain links — the lookahead the
/// conservative engine gets when the greedy partitioner cuts there.
pub const CUT_DELAY_MS: u64 = 5;

/// The dual-chain network: topology plus the two chain paths.
#[derive(Debug, Clone)]
pub struct DualChainNet {
    /// 2·[`CHAIN_HOPS`] routers plus `s` and `d`.
    pub topology: Topology,
    /// `paths[0]` is the a-chain, `paths[1]` the b-chain.
    pub paths: Vec<Path>,
    /// Cross-traffic flows, one per chain (`a2→a7`, `b2→b7`).
    pub background: Vec<CrossTraffic>,
}

impl DualChainNet {
    /// Build the pinned network. Deterministic: node and link ids depend
    /// only on the constants above.
    pub fn new() -> Self {
        let mut t = Topology::new();
        let s = t.add_node("s");
        let d = t.add_node("d");
        let a: Vec<_> = (1..=CHAIN_HOPS)
            .map(|i| t.add_node(format!("a{i}")))
            .collect();
        let b: Vec<_> = (1..=CHAIN_HOPS)
            .map(|i| t.add_node(format!("b{i}")))
            .collect();

        let bw = Bandwidth::from_mbps;
        let q = QueueConfig::default();
        let hop = SimDuration::from_millis(1);
        let cut = SimDuration::from_millis(CUT_DELAY_MS);
        // The only slow links sit mid-chain, so the greedy partitioner's
        // cheapest 2-region cut crosses them and nothing else.
        let mid = CHAIN_HOPS / 2; // link a[mid-1]—a[mid] is the cut link
        let delay = |i: usize| if i == mid { cut } else { hop };

        let chains = [(40, &a), (60, &b)];
        for (first_cap, chain) in chains {
            let mut prev = s;
            for (i, &n) in chain.iter().enumerate() {
                let cap = if i == 0 { first_cap } else { 100 };
                t.add_link(prev, n, bw(cap), delay(i), q);
                prev = n;
            }
            t.add_link(prev, d, bw(100), hop, q);
        }

        let walk = |chain: &[netsim::NodeId]| {
            let mut nodes = vec![s];
            nodes.extend_from_slice(chain);
            nodes.push(d);
            Path::from_nodes(&t, &nodes).expect("chain walk") // simlint: allow(unwrap, reason = "hard-coded chain walk; failure means the builder above is wrong")
        };
        let paths = vec![walk(&a), walk(&b)];

        let background = [&a, &b]
            .iter()
            .filter_map(|chain| {
                let (&from, &to) = chain.get(1).zip(chain.get(CHAIN_HOPS - 2))?;
                Some(CrossTraffic {
                    from,
                    to,
                    rate: bw(10),
                    packet_bytes: 1000,
                })
            })
            .collect();

        DualChainNet {
            topology: t,
            paths,
            background,
        }
    }

    /// The benchmark scenario over this network: CUBIC, minRTT, cross
    /// traffic on, pinned duration, seed 1.
    pub fn scenario(duration: SimDuration) -> Scenario {
        let net = Self::new();
        let mut sc = Scenario::new(net.topology, net.paths)
            .with_timing(duration, SimDuration::from_millis(100));
        sc.background = net.background;
        sc
    }
}

impl Default for DualChainNet {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{partition_topology, static_delay_floors};

    #[test]
    fn two_region_cut_lands_on_the_slow_mid_chain_links() {
        let net = DualChainNet::new();
        let floors = static_delay_floors(&net.topology);
        let part = partition_topology(&net.topology, 2, &floors);
        assert_eq!(part.regions, 2);
        // Both cut links carry the 5 ms delay, so the lookahead is 5 ms.
        assert_eq!(part.lookahead, Some(SimDuration::from_millis(CUT_DELAY_MS)));
        for l in &part.cut_links {
            assert_eq!(
                net.topology.link(*l).delay,
                SimDuration::from_millis(CUT_DELAY_MS),
                "cut crossed a fast link {l:?}"
            );
        }
    }

    #[test]
    fn sharded_dual_chain_matches_serial() {
        let build = || DualChainNet::scenario(SimDuration::from_millis(500));
        let serial = build().run();
        // Pinned: the cross-traffic agents sit between the MPTCP sender and
        // receiver in agent order, and that order feeds the hash.
        assert_eq!(
            serial.trace_hash, 0xed74_8c10_c94f_a275,
            "dual-chain hash moved: {:#018x}",
            serial.trace_hash
        );
        for regions in [2usize, 4] {
            let sharded = build().with_regions(regions).run();
            assert_eq!(
                serial.trace_hash, sharded.trace_hash,
                "{regions}-region trace hash"
            );
            assert_eq!(serial.events, sharded.events, "{regions}-region events");
        }
    }
}
