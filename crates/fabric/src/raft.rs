//! A compact Raft consensus implementation for the ordering service.
//!
//! Fabric v1.4.1 introduced Raft-based ordering; HyperProv's edge scenario
//! (Vegvisir discussion in the paper's Related Work) motivates an ordering
//! service that survives node failures and partitions. This module is a
//! sans-IO state machine: the caller delivers [`RaftMsg`]s and clock ticks
//! and ships the produced messages — so the same code runs under the
//! deterministic simulator and in unit tests.
//!
//! Scope: leader election, log replication, commit-index advancement with
//! the "current-term only" rule, follower log repair, and log compaction.
//! Snapshotting and membership changes are out of scope (Fabric's orderer
//! does not need them for the paper's experiments).
//!
//! Compaction is to the index every member holds. A node keeps
//! `(compacted, compacted_term)` and the suffix of its log after
//! `compacted`. The leader puts `compact_to` on every `AppendEntries`: the
//! lowest `match_index` over the other members and its own last index, 0
//! until every member has answered it. Each member drops the entries up to
//! `min(compact_to, applied)` — entries every member holds and this one
//! has applied, so committed ones, which no later leader overwrites. No
//! member ever lacks an entry another has dropped, so a leader serves
//! every follower from its own suffix and no snapshot install is needed;
//! the price is that a member that is down holds compaction back for the
//! length of its outage. Three rules keep the rest of the protocol as it
//! was: `next_index` never falls below `compacted + 1`, a `prev_index` at
//! or below `compacted` matches, and the last term of an empty suffix is
//! `compacted_term`.

use std::collections::{BTreeSet, HashMap};

use hyperprov_sim::DetRng;
use rand::Rng;

/// Index of a raft peer within the cluster (0-based).
pub type PeerIdx = usize;

/// Raft node role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Follows a leader; starts elections on timeout.
    Follower,
    /// Campaigning for votes.
    Candidate,
    /// Replicates the log and serves proposals.
    Leader,
}

/// A replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry<T> {
    /// Term in which the entry was created.
    pub term: u64,
    /// The replicated payload (an ordering batch).
    pub payload: T,
}

/// Messages exchanged between raft peers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaftMsg<T> {
    /// Candidate requests a vote.
    RequestVote {
        /// Candidate's term.
        term: u64,
        /// Candidate's index.
        candidate: PeerIdx,
        /// Index of candidate's last log entry.
        last_log_index: u64,
        /// Term of candidate's last log entry.
        last_log_term: u64,
    },
    /// Reply to a vote request.
    VoteReply {
        /// Voter's current term.
        term: u64,
        /// Whether the vote was granted.
        granted: bool,
        /// The voter.
        from: PeerIdx,
    },
    /// Leader replicates entries / sends heartbeats.
    AppendEntries {
        /// Leader's term.
        term: u64,
        /// The leader.
        leader: PeerIdx,
        /// Index of the entry preceding `entries` (0 = none).
        prev_index: u64,
        /// Term of that entry (0 if none).
        prev_term: u64,
        /// Entries to append (empty for heartbeat).
        entries: Vec<LogEntry<T>>,
        /// Leader's commit index.
        leader_commit: u64,
        /// The index every member holds: a receiver may drop its log up
        /// to here, as far as it has applied it.
        compact_to: u64,
    },
    /// Reply to AppendEntries.
    AppendReply {
        /// Follower's current term.
        term: u64,
        /// Whether the entries matched and were appended.
        success: bool,
        /// The follower.
        from: PeerIdx,
        /// Highest index known replicated on the follower (on success).
        match_index: u64,
    },
}

/// Everything a step produced: messages to send and newly committed
/// payloads to apply.
#[derive(Debug)]
pub struct RaftOutput<T> {
    /// `(destination, message)` pairs to ship over the network.
    pub messages: Vec<(PeerIdx, RaftMsg<T>)>,
    /// Payloads whose commit index was just reached, in log order,
    /// as `(log index, payload)`.
    pub committed: Vec<(u64, T)>,
}

impl<T> RaftOutput<T> {
    fn empty() -> Self {
        RaftOutput {
            messages: Vec::new(),
            committed: Vec::new(),
        }
    }
}

/// Election/heartbeat timing, in ticks (the driver picks the tick length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaftConfig {
    /// Minimum election timeout in ticks.
    pub election_timeout_min: u32,
    /// Maximum election timeout in ticks (exclusive bound for random draw).
    pub election_timeout_max: u32,
    /// Leader heartbeat period in ticks.
    pub heartbeat_interval: u32,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_timeout_min: 10,
            election_timeout_max: 20,
            heartbeat_interval: 3,
        }
    }
}

/// One raft peer.
#[derive(Debug)]
pub struct RaftNode<T> {
    id: PeerIdx,
    cluster_size: usize,
    config: RaftConfig,
    rng: DetRng,

    term: u64,
    voted_for: Option<PeerIdx>,
    /// The log up to `compacted` is dropped; `log` is what follows it.
    compacted: u64,
    compacted_term: u64,
    log: Vec<LogEntry<T>>,
    commit_index: u64,
    applied_index: u64,

    role: Role,
    votes: BTreeSet<PeerIdx>,
    leader_hint: Option<PeerIdx>,

    // Leader state.
    next_index: HashMap<PeerIdx, u64>,
    match_index: HashMap<PeerIdx, u64>,

    elapsed: u32,
    election_deadline: u32,
}

impl<T: Clone> RaftNode<T> {
    /// Creates a follower in term 0.
    pub fn new(id: PeerIdx, cluster_size: usize, config: RaftConfig, seed: u64) -> Self {
        assert!(cluster_size >= 1, "cluster must have at least one node");
        assert!(id < cluster_size, "node id out of range");
        assert!(
            config.election_timeout_min < config.election_timeout_max,
            "election timeout range must be non-empty"
        );
        let mut rng = DetRng::new(seed).fork_index(id as u64);
        let election_deadline =
            rng.gen_range(config.election_timeout_min..config.election_timeout_max);
        RaftNode {
            id,
            cluster_size,
            config,
            rng,
            term: 0,
            voted_for: None,
            compacted: 0,
            compacted_term: 0,
            log: Vec::new(),
            commit_index: 0,
            applied_index: 0,
            role: Role::Follower,
            votes: BTreeSet::new(),
            leader_hint: None,
            next_index: HashMap::new(),
            match_index: HashMap::new(),
            elapsed: 0,
            election_deadline,
        }
    }

    /// True if this node currently leads.
    pub fn is_leader(&self) -> bool {
        self.role == Role::Leader
    }

    /// The leader this node believes in, if any.
    pub fn leader_hint(&self) -> Option<PeerIdx> {
        if self.is_leader() {
            Some(self.id)
        } else {
            self.leader_hint
        }
    }

    /// Log length (highest index; indices are 1-based).
    pub fn last_index(&self) -> u64 {
        self.compacted + self.log.len() as u64
    }

    /// Highest index dropped from the log: the entries held are those
    /// after it, up to [`RaftNode::last_index`].
    pub(crate) fn compacted(&self) -> u64 {
        self.compacted
    }

    fn last_term(&self) -> u64 {
        self.log.last().map_or(self.compacted_term, |e| e.term)
    }

    /// Position in `log` of the entry at `index`, which must be held.
    fn slot(&self, index: u64) -> usize {
        (index - self.compacted - 1) as usize
    }

    /// Term of the entry at `index`, from `compacted` to the last index.
    fn term_at(&self, index: u64) -> u64 {
        if index == self.compacted {
            self.compacted_term
        } else {
            self.log[self.slot(index)].term
        }
    }

    /// The index every member holds: the lowest `match_index` and this
    /// leader's own last index, 0 until every member has answered.
    fn compact_to(&self) -> u64 {
        let matched = self.match_index.values().copied();
        matched.fold(self.last_index(), u64::min)
    }

    /// Drops the entries up to `to`, as far as this node has applied them.
    fn compact(&mut self, to: u64) {
        let to = to.min(self.applied_index);
        if to > self.compacted {
            self.compacted_term = self.term_at(to);
            self.log.drain(..=self.slot(to));
            self.compacted = to;
            for next in self.next_index.values_mut() {
                *next = (to + 1).max(*next);
            }
        }
    }

    fn majority(&self) -> usize {
        self.cluster_size / 2 + 1
    }

    fn others(&self) -> impl Iterator<Item = PeerIdx> + '_ {
        (0..self.cluster_size).filter(move |&p| p != self.id)
    }

    fn reset_election_timer(&mut self) {
        self.elapsed = 0;
        self.election_deadline = self
            .rng
            .gen_range(self.config.election_timeout_min..self.config.election_timeout_max);
    }

    /// Advances the local clock by one tick.
    pub fn tick(&mut self) -> RaftOutput<T> {
        self.elapsed += 1;
        match self.role {
            Role::Leader => {
                if self.elapsed >= self.config.heartbeat_interval {
                    self.elapsed = 0;
                    return self.broadcast_append();
                }
                RaftOutput::empty()
            }
            Role::Follower | Role::Candidate => {
                if self.elapsed >= self.election_deadline {
                    self.start_election()
                } else {
                    RaftOutput::empty()
                }
            }
        }
    }

    fn start_election(&mut self) -> RaftOutput<T> {
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes.clear();
        self.votes.insert(self.id);
        self.leader_hint = None;
        self.reset_election_timer();
        if self.votes.len() >= self.majority() {
            return self.become_leader();
        }
        let mut out = RaftOutput::empty();
        for peer in self.others().collect::<Vec<_>>() {
            out.messages.push((
                peer,
                RaftMsg::RequestVote {
                    term: self.term,
                    candidate: self.id,
                    last_log_index: self.last_index(),
                    last_log_term: self.last_term(),
                },
            ));
        }
        out
    }

    fn become_leader(&mut self) -> RaftOutput<T> {
        self.role = Role::Leader;
        self.leader_hint = Some(self.id);
        self.next_index.clear();
        self.match_index.clear();
        let next = self.last_index() + 1;
        for peer in self.others().collect::<Vec<_>>() {
            self.next_index.insert(peer, next);
            self.match_index.insert(peer, 0);
        }
        self.elapsed = 0;
        self.broadcast_append()
    }

    fn become_follower(&mut self, term: u64, leader: Option<PeerIdx>) {
        // A vote lasts for its term: following the leader of the term
        // voted in must not free the vote for a second candidate.
        if term > self.term {
            self.voted_for = None;
        }
        self.term = term;
        self.role = Role::Follower;
        self.votes.clear();
        self.leader_hint = leader;
        self.reset_election_timer();
    }

    /// Proposes a payload for replication.
    ///
    /// # Errors
    ///
    /// Returns `Err(payload)` (giving the payload back) if this node is not
    /// the leader; the caller should redirect to [`RaftNode::leader_hint`].
    pub fn propose(&mut self, payload: T) -> Result<RaftOutput<T>, T> {
        if !self.is_leader() {
            return Err(payload);
        }
        self.log.push(LogEntry {
            term: self.term,
            payload,
        });
        if self.cluster_size == 1 {
            // Single-node cluster commits immediately.
            let mut out = RaftOutput::empty();
            self.commit_index = self.last_index();
            self.drain_applied(&mut out);
            return Ok(out);
        }
        Ok(self.broadcast_append())
    }

    fn broadcast_append(&mut self) -> RaftOutput<T> {
        let compact_to = self.compact_to();
        self.compact(compact_to);
        let mut out = RaftOutput::empty();
        for peer in self.others().collect::<Vec<_>>() {
            let prev_index = self.next_index[&peer] - 1;
            out.messages.push((
                peer,
                RaftMsg::AppendEntries {
                    term: self.term,
                    leader: self.id,
                    prev_index,
                    prev_term: self.term_at(prev_index),
                    entries: self.log[(prev_index - self.compacted) as usize..].to_vec(),
                    leader_commit: self.commit_index,
                    compact_to,
                },
            ));
        }
        out
    }

    /// Handles one incoming message.
    pub fn step(&mut self, msg: RaftMsg<T>) -> RaftOutput<T> {
        match msg {
            RaftMsg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => self.on_request_vote(term, candidate, last_log_index, last_log_term),
            RaftMsg::VoteReply {
                term,
                granted,
                from,
            } => self.on_vote_reply(term, granted, from),
            RaftMsg::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                entries,
                leader_commit,
                compact_to,
            } => {
                let out =
                    self.on_append(term, leader, prev_index, prev_term, entries, leader_commit);
                // Unless the leader was stale, every member holds the log
                // up to `compact_to`.
                if term == self.term {
                    self.compact(compact_to);
                }
                out
            }
            RaftMsg::AppendReply {
                term,
                success,
                from,
                match_index,
            } => self.on_append_reply(term, success, from, match_index),
        }
    }

    fn on_request_vote(
        &mut self,
        term: u64,
        candidate: PeerIdx,
        last_log_index: u64,
        last_log_term: u64,
    ) -> RaftOutput<T> {
        let mut out = RaftOutput::empty();
        if term > self.term {
            self.become_follower(term, None);
        }
        let log_ok = last_log_term > self.last_term()
            || (last_log_term == self.last_term() && last_log_index >= self.last_index());
        let granted = term == self.term
            && log_ok
            && (self.voted_for.is_none() || self.voted_for == Some(candidate));
        if granted {
            self.voted_for = Some(candidate);
            self.reset_election_timer();
        }
        out.messages.push((
            candidate,
            RaftMsg::VoteReply {
                term: self.term,
                granted,
                from: self.id,
            },
        ));
        out
    }

    fn on_vote_reply(&mut self, term: u64, granted: bool, from: PeerIdx) -> RaftOutput<T> {
        if term > self.term {
            self.become_follower(term, None);
            return RaftOutput::empty();
        }
        if self.role != Role::Candidate || term < self.term || !granted {
            return RaftOutput::empty();
        }
        self.votes.insert(from);
        if self.votes.len() >= self.majority() {
            return self.become_leader();
        }
        RaftOutput::empty()
    }

    fn on_append(
        &mut self,
        term: u64,
        leader: PeerIdx,
        prev_index: u64,
        prev_term: u64,
        entries: Vec<LogEntry<T>>,
        leader_commit: u64,
    ) -> RaftOutput<T> {
        let mut out = RaftOutput::empty();
        if term < self.term {
            out.messages.push((
                leader,
                RaftMsg::AppendReply {
                    term: self.term,
                    success: false,
                    from: self.id,
                    match_index: 0,
                },
            ));
            return out;
        }
        // Valid leader for this term (or newer): follow it.
        self.become_follower(term, Some(leader));

        // Log consistency check; what was compacted was committed, so it
        // matches any leader's log.
        let prev_ok = prev_index <= self.compacted
            || (prev_index <= self.last_index() && self.term_at(prev_index) == prev_term);
        if !prev_ok {
            out.messages.push((
                leader,
                RaftMsg::AppendReply {
                    term: self.term,
                    success: false,
                    from: self.id,
                    match_index: 0,
                },
            ));
            return out;
        }

        // Append, truncating any conflicting suffix.
        let mut idx = prev_index;
        for entry in entries {
            idx += 1;
            if idx <= self.compacted {
                continue;
            }
            if idx <= self.last_index() {
                if self.term_at(idx) != entry.term {
                    self.log.truncate(self.slot(idx));
                    self.log.push(entry);
                }
            } else {
                self.log.push(entry);
            }
        }

        if leader_commit > self.commit_index {
            self.commit_index = leader_commit.min(self.last_index());
            self.drain_applied(&mut out);
        }

        out.messages.push((
            leader,
            RaftMsg::AppendReply {
                term: self.term,
                success: true,
                from: self.id,
                match_index: idx.max(prev_index),
            },
        ));
        out
    }

    fn on_append_reply(
        &mut self,
        term: u64,
        success: bool,
        from: PeerIdx,
        match_index: u64,
    ) -> RaftOutput<T> {
        let mut out = RaftOutput::empty();
        if term > self.term {
            self.become_follower(term, None);
            return out;
        }
        if self.role != Role::Leader || term < self.term {
            return out;
        }
        if success {
            // A reply overtaken by a later one must not undo its progress.
            let matched = self.match_index.entry(from).or_insert(0);
            *matched = match_index.max(*matched);
            let next = self.next_index.entry(from).or_insert(1);
            *next = (match_index + 1).max(*next);
            self.advance_commit(&mut out);
        } else {
            // Back off and retry on the next heartbeat, no further back
            // than the log reaches.
            let next = self.next_index.entry(from).or_insert(1);
            *next = next.saturating_sub(1).max(self.compacted + 1);
        }
        out
    }

    fn advance_commit(&mut self, out: &mut RaftOutput<T>) {
        // Find the highest index replicated on a majority whose entry is
        // from the current term.
        let mut indices: Vec<u64> = self.match_index.values().copied().collect();
        indices.push(self.last_index()); // self
        indices.sort_unstable_by(|a, b| b.cmp(a));
        let candidate = indices[self.majority() - 1];
        if candidate > self.commit_index && self.term_at(candidate) == self.term {
            self.commit_index = candidate;
            self.drain_applied(out);
        }
    }

    fn drain_applied(&mut self, out: &mut RaftOutput<T>) {
        while self.applied_index < self.commit_index {
            self.applied_index += 1;
            let entry = &self.log[self.slot(self.applied_index)];
            out.committed
                .push((self.applied_index, entry.payload.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// In-memory cluster harness that delivers messages instantly, with an
    /// optional partition set.
    struct Cluster {
        nodes: Vec<RaftNode<u64>>,
        blocked: BTreeSet<(PeerIdx, PeerIdx)>,
        committed: Vec<Vec<(u64, u64)>>,
    }

    impl Cluster {
        fn new(n: usize) -> Self {
            Cluster {
                nodes: (0..n)
                    .map(|i| RaftNode::new(i, n, RaftConfig::default(), 42))
                    .collect(),
                blocked: BTreeSet::new(),
                committed: vec![Vec::new(); n],
            }
        }

        fn partition(&mut self, a: PeerIdx, b: PeerIdx) {
            self.blocked.insert((a, b));
            self.blocked.insert((b, a));
        }

        fn heal(&mut self) {
            self.blocked.clear();
        }

        fn dispatch(&mut self, from: PeerIdx, out: RaftOutput<u64>) {
            self.committed[from].extend(out.committed);
            let mut queue: Vec<(PeerIdx, PeerIdx, RaftMsg<u64>)> = out
                .messages
                .into_iter()
                .map(|(dst, m)| (from, dst, m))
                .collect();
            while let Some((src, dst, msg)) = queue.pop() {
                if self.blocked.contains(&(src, dst)) {
                    continue;
                }
                let next = self.nodes[dst].step(msg);
                self.committed[dst].extend(next.committed);
                queue.extend(next.messages.into_iter().map(|(d, m)| (dst, d, m)));
            }
        }

        fn tick_all(&mut self) {
            for i in 0..self.nodes.len() {
                let out = self.nodes[i].tick();
                self.dispatch(i, out);
            }
        }

        fn run_ticks(&mut self, n: u32) {
            for _ in 0..n {
                self.tick_all();
            }
        }

        fn leader(&self) -> Option<PeerIdx> {
            self.nodes.iter().position(RaftNode::is_leader)
        }

        fn propose(&mut self, payload: u64) -> bool {
            if let Some(l) = self.leader() {
                match self.nodes[l].propose(payload) {
                    Ok(out) => {
                        self.dispatch(l, out);
                        return true;
                    }
                    Err(_) => return false,
                }
            }
            false
        }
    }

    #[test]
    fn single_node_elects_and_commits_instantly() {
        let mut c = Cluster::new(1);
        c.run_ticks(25);
        assert_eq!(c.leader(), Some(0));
        assert!(c.propose(7));
        assert_eq!(c.committed[0], vec![(1, 7)]);
    }

    #[test]
    fn three_nodes_elect_exactly_one_leader() {
        let mut c = Cluster::new(3);
        c.run_ticks(50);
        let leaders = c.nodes.iter().filter(|n| n.is_leader()).count();
        assert_eq!(leaders, 1);
        let term = c.nodes[c.leader().unwrap()].term;
        for n in &c.nodes {
            assert_eq!(n.term, term);
            assert_eq!(n.leader_hint(), c.leader());
        }
    }

    #[test]
    fn replication_commits_on_all_nodes() {
        let mut c = Cluster::new(3);
        c.run_ticks(50);
        assert!(c.propose(11));
        assert!(c.propose(22));
        c.run_ticks(10); // heartbeats propagate commit index
        for i in 0..3 {
            assert_eq!(c.committed[i], vec![(1, 11), (2, 22)], "node {i}");
        }
    }

    #[test]
    fn leader_failure_triggers_new_election() {
        let mut c = Cluster::new(3);
        c.run_ticks(50);
        let old = c.leader().unwrap();
        assert!(c.propose(1));
        c.run_ticks(5);
        // Isolate the old leader.
        for p in 0..3 {
            if p != old {
                c.partition(old, p);
            }
        }
        c.run_ticks(60);
        let survivors: Vec<PeerIdx> = (0..3).filter(|&p| p != old).collect();
        let new = survivors
            .iter()
            .copied()
            .find(|&p| c.nodes[p].is_leader())
            .expect("a survivor should take over");
        assert_ne!(new, old);
        assert!(c.nodes[new].term > c.nodes[old].term || !c.nodes[old].is_leader());
        // New leader can commit.
        let out = c.nodes[new].propose(99).ok().unwrap();
        c.dispatch(new, out);
        c.run_ticks(10);
        assert!(c.committed[new].iter().any(|&(_, v)| v == 99));
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let mut c = Cluster::new(5);
        c.run_ticks(60);
        let leader = c.leader().unwrap();
        // Cut the leader plus one follower off from the other three.
        let follower = (0..5).find(|&p| p != leader).unwrap();
        for p in 0..5 {
            if p != leader && p != follower {
                c.partition(leader, p);
                c.partition(follower, p);
            }
        }
        // Old leader accepts a proposal but can never commit it.
        let before: usize = c.committed[leader].len();
        if let Ok(out) = c.nodes[leader].propose(666) {
            c.dispatch(leader, out);
        }
        c.run_ticks(80);
        assert_eq!(
            c.committed[leader].len(),
            before,
            "minority must not commit"
        );
        assert!(!c.committed.iter().flatten().any(|&(_, v)| v == 666));
        // Majority side elected a new leader and can commit.
        let majority_leader = (0..5)
            .filter(|&p| p != leader && p != follower)
            .find(|&p| c.nodes[p].is_leader())
            .expect("majority side should elect");
        let out = c.nodes[majority_leader].propose(777).ok().unwrap();
        c.dispatch(majority_leader, out);
        c.run_ticks(10);
        assert!(c.committed[majority_leader].iter().any(|&(_, v)| v == 777));
    }

    #[test]
    fn healed_partition_converges_logs() {
        let mut c = Cluster::new(3);
        c.run_ticks(50);
        let leader = c.leader().unwrap();
        let isolated = (0..3).find(|&p| p != leader).unwrap();
        for p in 0..3 {
            if p != isolated {
                c.partition(isolated, p);
            }
        }
        assert!(c.propose(5));
        assert!(c.propose(6));
        c.run_ticks(10);
        c.heal();
        c.run_ticks(80);
        // The isolated node catches up (possibly after re-election churn).
        let committed_values: Vec<u64> = c.committed[isolated].iter().map(|&(_, v)| v).collect();
        assert!(committed_values.contains(&5) && committed_values.contains(&6));
        // All nodes agree on prefix order.
        for i in 0..3 {
            let vals: Vec<u64> = c.committed[i].iter().map(|&(_, v)| v).collect();
            let five = vals.iter().position(|&v| v == 5).unwrap();
            let six = vals.iter().position(|&v| v == 6).unwrap();
            assert!(five < six, "node {i} order");
        }
    }

    #[test]
    fn proposals_to_non_leader_are_rejected() {
        let mut c = Cluster::new(3);
        c.run_ticks(50);
        let leader = c.leader().unwrap();
        let follower = (0..3).find(|&p| p != leader).unwrap();
        assert!(matches!(c.nodes[follower].propose(1), Err(1)));
        assert_eq!(c.nodes[follower].leader_hint(), Some(leader));
    }

    #[test]
    fn no_commit_without_majority_ack_of_current_term() {
        // Direct state machine check: a leader alone in a 3-cluster never
        // advances its commit index.
        let mut n: RaftNode<u64> = RaftNode::new(
            0,
            3,
            RaftConfig {
                election_timeout_min: 2,
                election_timeout_max: 3,
                heartbeat_interval: 1,
            },
            7,
        );
        // Force election timeout.
        let mut out = RaftOutput::empty();
        for _ in 0..5 {
            out = n.tick();
            if !out.messages.is_empty() {
                break;
            }
        }
        assert_eq!(n.role, Role::Candidate);
        // Grant both votes.
        let o = n.step(RaftMsg::VoteReply {
            term: n.term,
            granted: true,
            from: 1,
        });
        drop(o);
        assert!(n.is_leader());
        let _ = n.propose(9).unwrap();
        assert_eq!(n.commit_index, 0);
        drop(out);
    }

    /// Found by the ordering machines' adversarial schedule: a voter that
    /// heard from the leader it voted for used to forget the vote, and a
    /// late `RequestVote` of the same term then made a second leader.
    #[test]
    fn a_vote_is_kept_for_its_term() {
        let mut voter: RaftNode<u64> = RaftNode::new(1, 3, RaftConfig::default(), 7);
        let ask = |candidate| RaftMsg::RequestVote {
            term: 1,
            candidate,
            last_log_index: 0,
            last_log_term: 0,
        };
        let granted = |out: RaftOutput<u64>| matches!(out.messages[..], [(_, RaftMsg::VoteReply { granted, .. })] if granted);
        assert!(granted(voter.step(ask(0))));
        let _ = voter.step(RaftMsg::AppendEntries {
            term: 1,
            leader: 0,
            prev_index: 0,
            prev_term: 0,
            entries: vec![],
            leader_commit: 0,
            compact_to: 0,
        });
        assert!(!granted(voter.step(ask(2))));
        assert!(granted(voter.step(ask(0))));
    }

    /// Member 0 of a three-node cluster, elected by hand, that heartbeats
    /// on every tick and has proposed `1..=entries`.
    fn leader_with(entries: u64) -> RaftNode<u64> {
        let config = RaftConfig {
            election_timeout_min: 2,
            election_timeout_max: 3,
            heartbeat_interval: 1,
        };
        let mut leader = RaftNode::new(0, 3, config, 7);
        while leader.role != Role::Candidate {
            let _ = leader.tick();
        }
        let term = leader.term;
        let _ = leader.step(RaftMsg::VoteReply {
            term,
            granted: true,
            from: 1,
        });
        for payload in 1..=entries {
            leader.propose(payload).unwrap();
        }
        leader
    }

    /// Member `from`'s answer to an append of `leader`'s current term.
    fn reply(leader: &mut RaftNode<u64>, from: PeerIdx, success: bool, match_index: u64) {
        let term = leader.term;
        let _ = leader.step(RaftMsg::AppendReply {
            term,
            success,
            from,
            match_index,
        });
    }

    /// What `leader`'s next heartbeat sends member 1: `(prev_index,
    /// entries, compact_to)`.
    fn heartbeat(leader: &mut RaftNode<u64>) -> (u64, usize, u64) {
        let sent = leader
            .tick()
            .messages
            .into_iter()
            .find_map(|(to, msg)| match msg {
                RaftMsg::AppendEntries {
                    prev_index,
                    entries,
                    compact_to,
                    ..
                } if to == 1 => Some((prev_index, entries.len(), compact_to)),
                _ => None,
            });
        sent.expect("an append to member 1")
    }

    /// Link jitter reorders replies: one to an older append, arriving
    /// last, used to move member 1's `match_index` and `next_index` back,
    /// so the leader re-sent what it held and compacted less.
    #[test]
    fn a_stale_success_reply_does_not_regress_progress() {
        let mut leader = leader_with(3);
        reply(&mut leader, 1, true, 3);
        reply(&mut leader, 2, true, 3);
        reply(&mut leader, 1, true, 1);
        assert_eq!(heartbeat(&mut leader), (3, 0, 3));
        assert_eq!(leader.compacted(), 3);
    }

    #[test]
    fn back_off_stops_at_the_compaction_floor() {
        let mut leader = leader_with(3);
        reply(&mut leader, 1, true, 3);
        reply(&mut leader, 2, true, 3);
        assert_eq!(heartbeat(&mut leader), (3, 0, 3));
        assert_eq!((leader.compacted(), leader.last_index()), (3, 3));
        leader.propose(4).unwrap();
        for _ in 0..5 {
            reply(&mut leader, 1, false, 0);
        }
        // Everything below the floor is held by member 1 already.
        assert_eq!(heartbeat(&mut leader), (3, 1, 3));
    }

    #[test]
    fn a_vote_is_judged_on_the_compacted_term_when_the_suffix_is_empty() {
        let mut voter: RaftNode<u64> = RaftNode::new(1, 3, RaftConfig::default(), 7);
        let entry = |payload| LogEntry { term: 2, payload };
        let _ = voter.step(RaftMsg::AppendEntries {
            term: 2,
            leader: 0,
            prev_index: 0,
            prev_term: 0,
            entries: vec![entry(1), entry(2), entry(3)],
            leader_commit: 3,
            compact_to: 3,
        });
        assert_eq!((voter.compacted(), voter.last_index()), (3, 3));
        let ask = |last_log_index, last_log_term| RaftMsg::RequestVote {
            term: 3,
            candidate: 2,
            last_log_index,
            last_log_term,
        };
        let granted = |out: RaftOutput<u64>| matches!(out.messages[..], [(_, RaftMsg::VoteReply { granted, .. })] if granted);
        // A longer log of an older term, then a shorter one of the same.
        assert!(!granted(voter.step(ask(9, 1))));
        assert!(!granted(voter.step(ask(2, 2))));
        assert!(granted(voter.step(ask(3, 2))));
    }

    /// The values member `p` committed, in order.
    fn values(c: &Cluster, p: PeerIdx) -> Vec<u64> {
        c.committed[p].iter().map(|&(_, v)| v).collect()
    }

    #[test]
    fn a_follower_that_was_down_rejoins_from_the_leaders_suffix() {
        let mut c = Cluster::new(3);
        c.run_ticks(50);
        let leader = c.leader().unwrap();
        let down = (0..3).find(|&p| p != leader).unwrap();
        assert!(c.propose(1));
        c.run_ticks(5);
        for n in &c.nodes {
            assert_eq!((n.compacted(), n.last_index()), (1, 1));
        }
        for p in 0..3 {
            if p != down {
                c.partition(down, p);
            }
        }
        for v in 2..=5 {
            assert!(c.propose(v));
        }
        c.run_ticks(10);
        // The others commit all of it but drop nothing `down` lacks.
        assert_eq!(values(&c, leader), [1, 2, 3, 4, 5]);
        assert_eq!(c.nodes[down].last_index(), 1);
        for n in &c.nodes {
            assert_eq!(n.compacted(), 1);
        }
        c.heal();
        c.run_ticks(80);
        for p in 0..3 {
            assert_eq!(values(&c, p), [1, 2, 3, 4, 5], "node {p}");
            assert_eq!(c.nodes[p].compacted(), 5, "node {p}");
        }
    }

    #[test]
    fn a_leader_elected_after_compaction_replicates() {
        let mut c = Cluster::new(3);
        c.run_ticks(50);
        let old = c.leader().unwrap();
        for v in 1..=3 {
            assert!(c.propose(v));
        }
        c.run_ticks(5);
        for n in &c.nodes {
            assert_eq!((n.compacted(), n.last_index()), (3, 3));
        }
        for p in 0..3 {
            if p != old {
                c.partition(old, p);
            }
        }
        c.run_ticks(60);
        let new = (0..3)
            .find(|&p| p != old && c.nodes[p].is_leader())
            .expect("a survivor takes over");
        let out = c.nodes[new].propose(4).ok().unwrap();
        c.dispatch(new, out);
        c.heal();
        c.run_ticks(80);
        for p in 0..3 {
            assert_eq!(values(&c, p), [1, 2, 3, 4], "node {p}");
            assert_eq!(c.nodes[p].compacted(), 4, "node {p}");
        }
    }

    #[test]
    #[should_panic(expected = "cluster must have at least one node")]
    fn zero_cluster_panics() {
        let _: RaftNode<u64> = RaftNode::new(0, 0, RaftConfig::default(), 1);
    }
}
