//! Workspace-level fault-tolerance tests: commit deadlines firing cleanly
//! under partitions, a commit probe moving on at once past a cut-off
//! neighbour that answers "not found" and its answer moving the client's
//! home, no probe on a healthy network, split peer groups converging
//! after heal, Raft
//! leader loss with a retrying client, transient partitions absorbed
//! entirely by the client retry budget, a network-wide loss window
//! ridden out by deadlines and retry, a crashed home peer or home
//! orderer costing its clients one deadline per outage, not one per
//! operation — in an open loop too, with many operations in flight —, a
//! crashed storage node serving what it held after the restart, two
//! pinned findings of a peer left behind, and the links of a spare that
//! joins after a fault plan's actor.

mod support;

use hyperprov_repro::device::DeviceProfile;
use std::collections::BTreeMap;

use hyperprov_repro::fabric::{tx_trace, BatchConfig, Envelope};
use hyperprov_repro::hyperprov::{
    AuditFinding, ClientCommand, ClientCompletion, HyperProvError, HyperProvNetwork, NetworkConfig,
    NodeMsg, OpId, OpOutput, RetryPolicy,
};
use hyperprov_repro::sim::{ActorId, FaultPlan, LinkSpec, SimDuration, SimTime};
use support::{audit, leaders, op_id, post, store_data, Load};

fn store(net: &mut HyperProvNetwork, client: usize, n: u64, key: &str) {
    let command = store_data(key, op_id(client, n));
    net.sim
        .inject_message(net.clients[client], NodeMsg::Client(command));
}

/// One store on a one-client deployment whose peers in `cut` are
/// partitioned from the orderer, with deadlines and no retry policy:
/// endorsement (client <-> peer) and submission (client <-> orderer) still
/// work, only the block delivery to the cut peers does not. Returns the
/// operation's one completion and how many status probes the client sent.
fn store_with_peers_cut(cut: &[usize]) -> (HyperProvNetwork, ClientCompletion, usize) {
    let config = NetworkConfig::desktop(1)
        .with_seed(41)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        })
        .with_deadlines(
            Some(SimDuration::from_secs(2)),
            Some(SimDuration::from_secs(4)),
        );
    let mut net = HyperProvNetwork::build(&config);
    let orderer = net.orderers[0];
    for &peer in cut {
        net.sim.network_mut().partition(net.peers[peer], orderer);
    }
    store(&mut net, 0, 1, "stuck-commit");
    net.sim.run_until(SimTime::from_secs(30));
    let completions = net.completions[0].borrow().clone();
    assert_eq!(completions.len(), 1, "the operation must complete");
    let events = net.sim.tracer().events();
    let probes = events.filter(|e| e.name == "commit.probe").count();
    let completion = completions.into_iter().next().expect("one");
    (net, completion, probes)
}

/// A home peer cut off from the orderer holds no commit: the other peers
/// committed the transaction, and the first status probe — due at the
/// endorse deadline, as nothing was timed before — asks the next one,
/// whose answer ends the operation `Ok`, with no timeout. The home is
/// still cut off, so it is behind; nothing else is wrong.
#[test]
fn a_commit_wait_cut_off_from_its_home_ends_ok_after_one_probe() {
    let (net, completion, probes) = store_with_peers_cut(&[0]);
    assert!(
        matches!(completion.outcome, Ok(OpOutput::Committed { .. })),
        "expected the probed peer's answer, got {:?}",
        completion.outcome
    );
    assert_eq!(probes, 1);
    assert_eq!(net.sim.metrics().counter("client.timeouts"), 0);
    let found: Vec<String> = audit(&net).iter().map(ToString::to_string).collect();
    assert_eq!(found, ["hyperprov-channel peer0: diverged in height"]);
}

/// A commit notification that never arrives (every peer partitioned from
/// the orderer) must surface as a clean `Timeout` completion: no retry
/// policy is armed, the one probe that fits before the deadline goes
/// unanswered, the deadline fires once, and the operation ends once.
/// (That nothing is left in the client's tables afterwards, under every
/// schedule, is `client_machine.rs`'s property test.)
#[test]
fn commit_wait_times_out_cleanly_under_partition() {
    let (net, completion, probes) = store_with_peers_cut(&[0, 1, 2, 3]);
    assert!(
        matches!(completion.outcome, Err(HyperProvError::Timeout)),
        "expected a commit deadline timeout, got {:?}",
        completion.outcome
    );
    assert_eq!(probes, 1);
    assert_eq!(net.sim.metrics().counter("client.timeouts"), 1);
    let found: Vec<String> = audit(&net).iter().map(ToString::to_string).collect();
    assert_eq!(found, Vec::<String>::new());
}

/// Peers 2 and 3, neighbours on the endorser ring, are cut off from the
/// orderers together while four clients, one homed on each peer, keep
/// posting. Client 2's home holds no commit, and neither does peer 3, the
/// first its probes ask: peer 3 answers "not found", and the probe moves
/// on to peer 0 at once. Peer 0's answer moves client 2's home there, so
/// only the posts in flight when that first answer comes probe at all,
/// none waits for a second timed probe, and every later post of the cut
/// is endorsed by peer 0 and completes on its event, with no probe.
#[test]
fn a_probe_past_a_cut_off_neighbour_moves_on_without_waiting_for_the_timer() {
    let config = NetworkConfig::desktop(4)
        .with_seed(43)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(100),
            ..BatchConfig::default()
        })
        .with_deadlines(Some(ENDORSE_DEADLINE), Some(COMMIT_DEADLINE))
        .with_retry(RetryPolicy::new(8));
    let mut net = HyperProvNetwork::build(&config);
    let (cut, heal) = (SimTime::from_secs(2), SimTime::from_secs(5));
    FaultPlan::new()
        .partition_window(&net.peers[2..4], &net.orderers, cut, heal)
        .install(&mut net.sim);
    let mut issued = [0u64; 4];
    let every = Load::OnASchedule(SimDuration::from_millis(100));
    every.run(&mut net, &mut issued, SimTime::from_secs(7), &mut post);
    net.sim.run_until(SimTime::from_secs(20));

    let mut probes: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for event in net.sim.tracer().events() {
        let counts = probes.entry(event.trace.clone()).or_default();
        match event.name {
            "commit.probe" => counts.0 += 1,
            "commit.reprobe" => counts.1 += 1,
            _ => {}
        }
    }
    // Who endorsed each transaction, read off peer 0's chain.
    let mut endorser = BTreeMap::new();
    for block in net.ledgers[0].borrow().store().iter() {
        for raw in block.envelopes.iter() {
            let envelope = Envelope::from_raw(raw).expect("a committed envelope decodes");
            endorser.insert(
                envelope.tx_id(),
                envelope.endorsements[0].endorser.subject.clone(),
            );
        }
    }
    let completions = net.completions[2].borrow();
    assert_eq!(completions.len() as u64, issued[2], "an operation hung");
    let mut probed = Vec::new();
    let mut quiet = Vec::new();
    for completion in completions.iter() {
        let Ok(OpOutput::Committed { tx_id, .. }) = &completion.outcome else {
            panic!("{completion:?}");
        };
        let (timed, at_once) = probes.get(&tx_trace(tx_id)).copied().unwrap_or_default();
        assert!(
            timed <= 1,
            "{:?} waited for {timed} timed probes",
            completion.op
        );
        match timed + at_once {
            0 => quiet.push((completion.started, &endorser[tx_id])),
            _ => probed.push(completion),
        }
    }
    let answered = probed.iter().map(|c| c.finished).min().expect("a probe");
    for completion in &probed {
        assert!(
            completion.started < answered,
            "{:?}, issued at {}, probed after the first answer at {answered}",
            completion.op,
            completion.started
        );
    }
    let later: Vec<_> = quiet
        .iter()
        .filter(|&&(started, _)| started > answered && started < heal)
        .collect();
    // About one post in each 100 ms of the 3 s cut.
    assert!(
        later.len() >= 25,
        "{} posts after the first answer",
        later.len()
    );
    assert!(
        later.iter().all(|(_, by)| by.as_str() == "peer0"),
        "{later:?}"
    );
    drop(completions);
    assert_eq!(net.sim.metrics().counter("client.timeouts"), 0);
    assert_eq!(audit(&net), []);
}

/// On a healthy network cutting one transaction per block a commit takes
/// a few milliseconds, and the commit wait's retransmission timeout,
/// floored at 50 ms, stays above it: no probe leaves before any peer
/// could answer it — none leaves at all —, and no home moves. (Unfloored,
/// the four closed loops' queueing sent 43 probes.)
#[test]
fn a_healthy_network_cutting_one_tx_per_block_probes_nothing() {
    let config = NetworkConfig::desktop(4)
        .with_seed(43)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        })
        .with_deadlines(Some(ENDORSE_DEADLINE), Some(COMMIT_DEADLINE))
        .with_retry(RetryPolicy::new(8));
    let mut net = HyperProvNetwork::build(&config);
    let mut issued = [0u64; 4];
    Load::InAClosedLoop.run(&mut net, &mut issued, SimTime::from_secs(5), &mut post);
    net.sim.run_until(SimTime::from_secs(10));

    for (client, &issued) in issued.iter().enumerate() {
        let completions = net.completions[client].borrow();
        assert_eq!(completions.len() as u64, issued, "an operation hung");
        assert!(completions.iter().all(|c| c.outcome.is_ok()));
    }
    let probes = net
        .sim
        .tracer()
        .events()
        .filter(|e| e.name == "commit.probe");
    assert_eq!(probes.count(), 0);
    assert_eq!(net.sim.metrics().counter("client.home_moves"), 0);
    assert_eq!(audit(&net), []);
}

/// A 2/2 peer split heals via block catch-up: the cut half misses blocks
/// during the window, then replays them on the next delivery and ends up
/// with state databases identical to the connected half.
#[test]
fn partitioned_peer_group_heals_without_state_divergence() {
    let config = NetworkConfig::desktop(2)
        .with_seed(47)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        });
    let mut net = HyperProvNetwork::build(&config);

    // Cut peers 2 and 3 off from the orderer for the first 10 seconds.
    let cut = [net.peers[2], net.peers[3]];
    let t0 = net.sim.now();
    FaultPlan::new()
        .partition_window(
            &cut,
            &[net.orderers[0]],
            t0 + SimDuration::from_secs(1),
            t0 + SimDuration::from_secs(10),
        )
        .install(&mut net.sim);

    // Traffic during the partition commits on the connected half only
    // (clients 0 and 1 are homed at peers 0 and 1).
    net.sim.run_until(SimTime::from_secs(2));
    store(&mut net, 0, 1, "during-a");
    store(&mut net, 1, 1, "during-b");
    net.sim.run_until(SimTime::from_secs(8));
    assert_eq!(net.completions[0].borrow().len(), 1);
    assert_eq!(net.completions[1].borrow().len(), 1);
    let cut_heights: Vec<u64> = [2, 3]
        .iter()
        .map(|&i| net.ledgers[i].borrow().height())
        .collect();
    assert!(
        cut_heights.iter().all(|&h| h < 2),
        "cut peers should have missed blocks, got {cut_heights:?}"
    );

    // After the heal, fresh traffic exposes the gap; the cut peers issue
    // deliver requests and replay everything they missed.
    net.sim.run_until(SimTime::from_secs(12));
    store(&mut net, 0, 2, "after-a");
    store(&mut net, 1, 2, "after-b");
    net.sim.run_until(SimTime::from_secs(30));

    assert_eq!(net.ledgers[0].borrow().height(), 4);
    assert_eq!(audit(&net), []);
}

/// The orderers' views name exactly one leader of a 3-member Raft
/// cluster; once it is killed, the two left elect, and their views name
/// exactly one other.
#[test]
fn the_views_name_one_leader_before_a_leader_kill_and_another_after() {
    let config = NetworkConfig::desktop(1)
        .with_seed(29)
        .with_raft_orderers(3);
    let mut net = HyperProvNetwork::build(&config);
    net.sim.run_until(SimTime::from_secs(2));
    let before = leaders(&net);
    assert_eq!(before.len(), 1, "{before:?}");
    net.sim.crash_actor(before[0]);
    net.sim.run_until(SimTime::from_secs(6));
    let after = leaders(&net);
    assert_eq!(after.len(), 1, "{after:?}");
    assert_ne!(after, before);
}

/// Killing the Raft leader mid-run does not strand the client: the
/// remaining members elect a new leader, the crashed node recovers and
/// rejoins, and the deadline-plus-retry client pushes the operation
/// through without exhausting its budget.
#[test]
fn raft_leader_kill_recovers_with_retrying_client() {
    let config = NetworkConfig::desktop(1)
        .with_seed(53)
        .with_raft_orderers(3)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        })
        .with_deadlines(
            Some(SimDuration::from_secs(2)),
            Some(SimDuration::from_secs(4)),
        )
        .with_retry(RetryPolicy::new(8));
    let mut net = HyperProvNetwork::build(&config);

    // Let the cluster elect, then kill whoever leads.
    net.sim.run_until(SimTime::from_secs(2));
    let leader = *leaders(&net).first().expect("a leader after two seconds");
    net.sim.crash_actor(leader);

    store(&mut net, 0, 1, "across-failover");
    net.sim.run_until(SimTime::from_secs(6));
    net.sim.restart_actor(leader);
    net.sim.run_until(SimTime::from_secs(60));

    let completions = net.completions[0].borrow();
    assert_eq!(completions.len(), 1);
    assert!(
        completions[0].outcome.is_ok(),
        "operation must commit across the failover, got {:?}",
        completions[0].outcome
    );
    assert_eq!(net.sim.metrics().counter("client.exhausted"), 0);
    assert!(
        !leaders(&net).is_empty(),
        "the cluster must have a leader again"
    );
    drop(completions);
    assert_eq!(audit(&net), []);
}

/// A transient partition shorter than the retry budget is invisible to
/// the caller: early attempts hit the commit deadline, the client backs
/// off and resubmits, and an attempt after the heal succeeds.
#[test]
fn transient_partition_absorbed_by_retry_budget() {
    let config = NetworkConfig::desktop(1)
        .with_seed(59)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        })
        .with_deadlines(
            Some(SimDuration::from_secs(1)),
            Some(SimDuration::from_secs(1)),
        )
        .with_retry(RetryPolicy::new(6));
    let mut net = HyperProvNetwork::build(&config);

    // Cut the client's submission path to the orderer. Endorsement still
    // succeeds, but the envelope is never ordered, so nothing commits
    // anywhere — each attempt until the heal dies to the commit deadline.
    // (Cutting a peer instead would let the first attempt commit on the
    // other peers and turn the resubmission into an MVCC conflict.)
    let t0 = net.sim.now();
    FaultPlan::new()
        .partition_window(
            &[net.clients[0]],
            &[net.orderers[0]],
            t0,
            t0 + SimDuration::from_secs(3),
        )
        .install(&mut net.sim);

    store(&mut net, 0, 1, "transient");
    net.sim.run_until(SimTime::from_secs(30));

    let completions = net.completions[0].borrow();
    assert_eq!(completions.len(), 1);
    assert!(
        completions[0].outcome.is_ok(),
        "retries should outlast the partition, got {:?}",
        completions[0].outcome
    );
    assert!(
        net.sim.metrics().counter("client.retries") >= 1,
        "at least one attempt must have been retried"
    );
    assert!(net.sim.metrics().counter("client.timeouts") >= 1);
    assert_eq!(net.sim.metrics().counter("client.exhausted"), 0);
    drop(completions);
    assert_eq!(audit(&net), []);
}

/// Two clients store payloads in a closed loop for ten virtual seconds;
/// for two of them, in the middle, one message in five is lost on every
/// link — chain traffic and off-chain transfers alike. Every operation
/// must end — `Ok`, or a typed error: a retried post whose first attempt
/// did commit can be invalidated — with the retry budget never spent, no
/// span left open, and, once the traffic after the window has shown every
/// peer its gaps, all four ledgers equal.
///
/// Seed 67 with a budget of 8 attempts: 4 timeouts and 4 retries — 3 on
/// the chain (two orderer answers, one endorsement), 1 an off-chain
/// transfer — none exhausted, no post invalidated, ~785 `StoreData` per
/// client.
#[test]
fn a_loss_window_is_ridden_out_by_deadlines_and_retry() {
    let config = NetworkConfig::desktop(2)
        .with_seed(67)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        })
        .with_deadlines(
            Some(SimDuration::from_secs(1)),
            Some(SimDuration::from_secs(1)),
        )
        .with_retry(RetryPolicy::new(8));
    let mut net = HyperProvNetwork::build(&config);
    let t0 = net.sim.now();
    let at = |secs| t0 + SimDuration::from_secs(secs);
    FaultPlan::new()
        .loss_window(0.2, at(4), at(6))
        .install(&mut net.sim);

    let mut issued = [0u64; 2];
    Load::InAClosedLoop.run(&mut net, &mut issued, at(10), &mut store_data);
    net.sim.run_until(at(60));

    let mut failed = 0;
    for (client, &issued) in issued.iter().enumerate() {
        let completions = net.completions[client].borrow();
        assert_eq!(completions.len() as u64, issued, "an operation hung");
        for completion in completions.iter() {
            match &completion.outcome {
                Ok(_) => {}
                Err(HyperProvError::Invalidated(_)) => failed += 1,
                Err(other) => panic!("{:?} failed with {other:?}", completion.op),
            }
        }
        let after_window = completions.iter().filter(|c| c.started > at(6)).count();
        assert!(after_window > 10, "the loop kept running after the window");
    }
    let metrics = net.sim.metrics();
    assert!(metrics.counter("client.retries") >= 1);
    assert_eq!(metrics.counter("client.exhausted"), 0);
    assert_eq!(failed, 0, "posts invalidated");
    assert_eq!(audit(&net), []);
}

/// The benchmark's open loop: 12.5 operations a second per client.
const SCHEDULE: Load = Load::OnASchedule(SimDuration::from_millis(80));

/// The benchmark's deadlines.
const ENDORSE_DEADLINE: SimDuration = SimDuration::from_secs(2);
const COMMIT_DEADLINE: SimDuration = SimDuration::from_secs(4);

/// The deployment of the two outage tests: three clients, homed on peers
/// and Raft orderers 0, 1 and 2, under the benchmark's deadlines and
/// retry budget. Four blocks a second, so a peer that was down for ten
/// seconds is still within the orderer's 64-block tail.
fn three_homes(seed: u64) -> HyperProvNetwork {
    let config = NetworkConfig::desktop(3)
        .with_seed(seed)
        .with_raft_orderers(3)
        .with_batch(BatchConfig {
            timeout: SimDuration::from_millis(250),
            ..BatchConfig::default()
        })
        .with_deadlines(Some(ENDORSE_DEADLINE), Some(COMMIT_DEADLINE))
        .with_retry(RetryPolicy::new(8));
    let mut net = HyperProvNetwork::build(&config);
    net.sim.run_until(SimTime::from_secs(2)); // elect
    net
}

/// The three clients post under `load` for 24 s while `node`, the home
/// of client `homed`, is down from 6 s to 16 s. Every post ends `Ok` with
/// the budget never spent, and the live peers end up equal. Only a post
/// `homed` issued within `deadline` of the crash may meet the dead node:
/// it takes at most that deadline — a copy past the silent node at the
/// route's retransmission timeout usually gets there first — plus the
/// first backoff (50 ms + 20 %) plus a steady-state post on the next node
/// (at most twice the slowest post before the fault). The client's first
/// copy or expiry moved its home past the dead node, so every later post
/// of the outage never meets it and takes at most twice the steady-state
/// post. Returns how many posts `homed`
/// issued during the outage, and how many of them took the deadline or
/// longer.
fn an_outage_costs_one_deadline(
    net: &mut HyperProvNetwork,
    node: ActorId,
    homed: usize,
    deadline: SimDuration,
    load: Load,
) -> (usize, usize) {
    let (down, up) = (SimTime::from_secs(6), SimTime::from_secs(16));
    FaultPlan::new()
        .crash_window(node, down, up)
        .install(&mut net.sim);
    let mut issued = [0u64; 3];
    load.run(net, &mut issued, SimTime::from_secs(24), &mut post);
    net.sim.run_until(SimTime::from_secs(60));

    for (client, &issued) in issued.iter().enumerate() {
        let completions = net.completions[client].borrow();
        assert_eq!(completions.len() as u64, issued, "an operation hung");
        for completion in completions.iter() {
            assert!(completion.outcome.is_ok(), "{completion:?}");
        }
    }
    assert_eq!(net.sim.metrics().counter("client.exhausted"), 0);
    assert_eq!(audit(net), []);

    let completions = net.completions[homed].borrow();
    let latency = |c: &ClientCompletion| c.finished - c.started;
    let before = completions.iter().filter(|c| c.finished < down);
    let steady = before.map(latency).max().expect("posts before the fault");
    let during: Vec<_> = completions
        .iter()
        .filter(|c| c.started > down && c.started < up)
        .collect();
    for completion in &during {
        let (took, early) = (latency(completion), completion.started <= down + deadline);
        let bound = match early {
            true => deadline + SimDuration::from_millis(60) + steady + steady,
            false => steady + steady,
        };
        assert!(
            took <= bound,
            "{:?}, issued at {}, took {took}, over {bound}",
            completion.op,
            completion.started
        );
    }
    let paid = during.iter().filter(|c| latency(c) >= deadline).count();
    (during.len(), paid)
}

/// Client 0's home peer is down for ten seconds. The post the crash
/// caught waits out its commit deadline — its endorser reports the commit
/// — and that expiry moves the client's home to the next peer of the
/// ring: every post the client issues during the outage is endorsed, and
/// its commit reported, there at once.
#[test]
fn a_crashed_home_peer_costs_one_endorse_deadline_per_outage() {
    let mut net = three_homes(71);
    let home = net.peers[0];
    let (posts, paid) =
        an_outage_costs_one_deadline(&mut net, home, 0, ENDORSE_DEADLINE, Load::InAClosedLoop);
    assert!(posts >= 20, "{posts} posts issued during the outage");
    assert!(paid <= 1, "{paid} of {posts} posts paid a deadline");
}

/// The home orderer of a client — a follower, so nobody else notices —
/// is down for ten seconds. The envelope sent to it goes unanswered for
/// one endorse deadline, the resubmission goes to the next orderer, and
/// so does every envelope the client sends for the rest of the outage.
#[test]
fn a_crashed_home_orderer_costs_one_endorse_deadline_per_outage() {
    let mut net = three_homes(73);
    let leader = *leaders(&net).first().expect("a leader after two seconds");
    let follower = net.orderers.iter().position(|&o| o != leader).unwrap();
    let home = net.orderers[follower];
    let (posts, paid) = an_outage_costs_one_deadline(
        &mut net,
        home,
        follower,
        ENDORSE_DEADLINE,
        Load::InAClosedLoop,
    );
    assert!(posts >= 20, "{posts} posts issued during the outage");
    assert!(paid <= 1, "{paid} of {posts} posts paid a deadline");
}

/// The same crash under an open loop: the client sends envelopes to the
/// dead orderer until the first of them is copied to the next orderer at
/// the order wait's retransmission timeout, which moves the home; each of
/// the others is copied on at its own, instead of waiting out a deadline:
/// at most one timeout in all.
#[test]
fn an_open_loop_pays_one_endorse_deadline_for_a_crashed_home_orderer() {
    let mut net = three_homes(73);
    let leader = *leaders(&net).first().expect("a leader after two seconds");
    let follower = net.orderers.iter().position(|&o| o != leader).unwrap();
    let home = net.orderers[follower];
    let (posts, _) =
        an_outage_costs_one_deadline(&mut net, home, follower, ENDORSE_DEADLINE, SCHEDULE);
    assert!(posts >= 100, "{posts} posts issued during the outage");
    // Only client `follower` is homed on the dead orderer.
    let timeouts = net.sim.metrics().counter("client.timeouts");
    assert!(timeouts <= 1, "{timeouts} deadlines expired");
}

/// A desktop deployment with one client, one block per transaction and no
/// deadlines.
fn one_block_per_tx(seed: u64) -> NetworkConfig {
    NetworkConfig::desktop(1)
        .with_seed(seed)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        })
}

/// Spares join after a fault plan's actor took the next actor id. Each is
/// linked through its NIC to every built device and to the other spare;
/// the fault plan's actor has no NIC and keeps the default link.
#[test]
fn a_spare_that_joins_after_a_fault_plan_links_through_its_nic() {
    let rpi = DeviceProfile::raspberry_pi_3b_plus();
    let mut config = one_block_per_tx(5).with_spare_peers(2);
    // Spare `i` runs on peer `i`'s device: spare 0 on a Pi, spare 1 on a
    // desktop, whose NIC equals every other built device's.
    config.peer_devices[0] = rpi.clone();
    let mut net = HyperProvNetwork::build(&config);
    let t0 = net.sim.now();
    let at = |secs| t0 + SimDuration::from_secs(secs);
    let plan = FaultPlan::new()
        .crash_window(net.peers[1], at(1), at(2))
        .install(&mut net.sim);
    let built = net.devices.len();
    assert_eq!(
        plan,
        ActorId(built as u32),
        "the plan sits between build and spares"
    );
    let pi_spare = net.add_peer();
    let desktop_spare = net.add_peer();
    let link = |a, b| (net.sim.network().link(a, b), net.sim.network().link(b, a));
    for (i, device) in net.devices[..built].iter().enumerate() {
        let id = ActorId(i as u32);
        assert_eq!(link(id, pi_spare), (rpi.nic, rpi.nic), "{id}");
        assert_eq!(link(id, desktop_spare), (device.nic, device.nic), "{id}");
        assert_eq!(link(id, plan), (LinkSpec::lan(), LinkSpec::lan()), "{id}");
    }
    assert_eq!(link(pi_spare, desktop_spare), (rpi.nic, rpi.nic));
    assert_eq!(
        link(plan, desktop_spare),
        (LinkSpec::lan(), LinkSpec::lan())
    );
}

/// A spare that joins while its channel's Solo ordering node is down sends
/// its one `DeliverSubscribe` into the crash. Its catch-up reaches the tip
/// once the node is back, but the node never delivers to it again: the next
/// block leaves it behind for good. A known finding that ROADMAP item 9
/// (catch-up from peers) flips to a clean audit.
#[test]
fn a_spare_that_joins_while_the_solo_orderer_is_down_stays_behind() {
    let mut net = HyperProvNetwork::build(&one_block_per_tx(79).with_spare_peers(1));
    let t0 = net.sim.now();
    let at = |secs| t0 + SimDuration::from_secs(secs);
    FaultPlan::new()
        .crash_window(net.orderers[0], at(3), at(5))
        .install(&mut net.sim);
    store(&mut net, 0, 1, "before");
    net.sim.run_until(at(4));
    net.add_peer();
    net.sim.run_until(at(10));
    assert_eq!(net.ledgers[4].borrow().height(), 1, "caught up once back");
    store(&mut net, 0, 2, "after");
    net.sim.run_until(at(30));

    assert!(net.completions[0]
        .borrow()
        .iter()
        .all(|c| c.outcome.is_ok()));
    let found: Vec<String> = audit(&net).iter().map(ToString::to_string).collect();
    assert_eq!(found, ["hyperprov-channel peer4: diverged in height"]);
}

/// Peer 3 is cut off from the orderer while the last post commits, and
/// heals after it. Catch-up is gap-driven: nothing shows peer 3 the block
/// it missed until one more post does. A known finding that ROADMAP item 9
/// flips: the first audit then comes back clean too.
#[test]
fn a_peer_whose_partition_heals_after_the_last_post_stays_behind_until_one_more_post() {
    let mut net = HyperProvNetwork::build(&one_block_per_tx(83));
    let t0 = net.sim.now();
    let at = |secs| t0 + SimDuration::from_secs(secs);
    FaultPlan::new()
        .partition_window(&[net.peers[3]], &[net.orderers[0]], at(2), at(5))
        .install(&mut net.sim);
    store(&mut net, 0, 1, "before");
    net.sim.run_until(at(3));
    store(&mut net, 0, 2, "during");
    net.sim.run_until(at(30));
    let found: Vec<String> = audit(&net).iter().map(ToString::to_string).collect();
    assert_eq!(found, ["hyperprov-channel peer3: diverged in height"]);

    store(&mut net, 0, 3, "after");
    net.sim.run_until(at(60));
    assert_eq!(net.ledgers[3].borrow().height(), 3);
    assert_eq!(audit(&net), []);
}

/// Client `c`'s odd operations store a fresh item, and its even ones read
/// back `kept`, the object stored before the storage node crashed.
fn store_or_get_kept(key: &str, op: u64) -> ClientCommand {
    match op % 2 {
        1 => store_data(key, op),
        _ => ClientCommand::GetData {
            key: "kept".into(),
            op: OpId(op),
        },
    }
}

/// A crash of the off-chain storage node is ridden out like any other
/// node's: every `StoreData` / `GetData` in flight or issued while it is
/// down takes a transfer deadline and a retry, and ends. The node reboots
/// with its objects, so one stored before the crash is served after it,
/// and the replicas and the chain audit clean.
///
/// The crash lands while the node serves a request (500 µs after a loop
/// tick; at the tick itself no job is running). That job dies with it, and
/// its `offchain.server` span stays open: the audit reports it, a known
/// finding until a restart closes the spans of the jobs it lost.
#[test]
fn a_crashed_storage_node_serves_what_it_held_after_the_restart() {
    let config = NetworkConfig::desktop(2)
        .with_seed(71)
        .with_batch(BatchConfig {
            max_message_count: 1,
            ..BatchConfig::default()
        })
        .with_deadlines(
            Some(SimDuration::from_secs(1)),
            Some(SimDuration::from_secs(1)),
        )
        .with_retry(RetryPolicy::new(8));
    let mut net = HyperProvNetwork::build(&config);
    let t0 = net.sim.now();
    let at = |secs| t0 + SimDuration::from_secs(secs);
    store(&mut net, 0, 1, "kept");
    net.sim.run_until(at(2));
    assert!(net.completions[0].borrow()[0].outcome.is_ok());
    FaultPlan::new()
        .crash_window(net.storage, at(4) + SimDuration::from_micros(500), at(6))
        .install(&mut net.sim);

    let mut issued = [1u64, 0];
    Load::InAClosedLoop.run(&mut net, &mut issued, at(10), &mut store_or_get_kept);
    net.sim.run_until(at(60));

    let kept = b"payload for kept".to_vec();
    let mut read_after = 0;
    for (client, &issued) in issued.iter().enumerate() {
        let completions = net.completions[client].borrow();
        assert_eq!(completions.len() as u64, issued, "an operation hung");
        for completion in completions.iter() {
            match &completion.outcome {
                Ok(OpOutput::Data { data, .. }) if completion.started > at(6) => {
                    assert_eq!(data, &kept);
                    read_after += 1;
                }
                Ok(_) => {}
                Err(error) => panic!("{:?} failed with {error:?}", completion.op),
            }
        }
    }
    assert!(
        read_after > 10,
        "{read_after} reads of kept after the restart"
    );
    let metrics = net.sim.metrics();
    assert!(metrics.counter("client.retries") >= 1);
    assert_eq!(metrics.counter("client.exhausted"), 0);
    assert_eq!(audit(&net), [AuditFinding::OpenSpans("offchain.server", 1)]);
}
