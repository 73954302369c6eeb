//! What a sans-IO machine — [`Gateway`](crate::Gateway), the HyperProv client,
//! [`Peer`](crate::Peer), [`OrderingNode`](crate::OrderingNode), the
//! off-chain store — answers an input with; [`Host`](crate::Host) performs
//! it.

use hyperprov_ledger::ChannelId;
use hyperprov_sim::{ActorId, Carries, SimDuration};

use crate::messages::FabricMsg;

/// A message to send: `(destination, wire bytes, message)`.
pub type Outbound<M> = (ActorId, u64, M);

/// The key of a span: `(trace, stage, detail)`.
pub type SpanKey = (String, &'static str, String);

/// One thing the host must do for its machine, in the order given (its
/// sends carry `S`, the kind of message the machine takes): a send
/// draws link jitter from the actor's random stream and arming a timer
/// takes a kernel sequence number, so the order is part of the model. An
/// action says who, what and how much CPU, never when: the host owns the
/// clock. (Short-lived and mostly sends: boxing the message would buy
/// nothing.)
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Action<X, S = FabricMsg> {
    /// Send the message, this many bytes on the wire, to the actor now.
    Send(ActorId, u64, S),
    /// Run one CPU job of this cost; when it is done close the spans, then
    /// send the messages.
    Job(SimDuration, Vec<Outbound<S>>, Vec<SpanKey>),
    /// Keep the CPU busy for this long (it models utilisation and
    /// energy); nothing waits for it.
    Charge(SimDuration),
    /// Arm the timer of this token to fire after the delay; it comes back
    /// through the machine's timer input.
    Arm(u64, SimDuration),
    /// Cancel the timer of this token, if it is pending.
    Disarm(u64),
    /// Add to the counter of this name: the hosted channel's, or with
    /// `None` the node's own.
    Count(Option<ChannelId>, &'static str, u64),
    /// Set the gauge of this name, scoped like a counter.
    Gauge(Option<ChannelId>, &'static str, f64),
    /// Record the duration in the node's histogram of this name.
    Observe(&'static str, SimDuration),
    /// Open the span (trace, stage, detail).
    SpanStart(String, &'static str, String),
    /// Close the span (trace, stage, detail).
    SpanEnd(String, &'static str, String),
    /// Record a point event (name, detail) on the trace.
    Note(String, &'static str, String),
    /// What only this kind of machine asks for; its host knows how.
    Own(X),
}

impl<X, S> Action<X, S> {
    /// The same action in the vocabulary of a machine whose own actions
    /// are `Y` and whose messages carry `T` — one that embeds this
    /// machine — or this machine's own.
    pub fn split<Y, T: Carries<S>>(self) -> Result<Action<Y, T>, X> {
        let wrap = |(to, bytes, msg)| (to, bytes, T::wrap(msg));
        Ok(match self {
            Action::Send(to, bytes, msg) => Action::Send(to, bytes, T::wrap(msg)),
            Action::Job(cost, sends, closes) => {
                Action::Job(cost, sends.into_iter().map(wrap).collect(), closes)
            }
            Action::Charge(cost) => Action::Charge(cost),
            Action::Arm(token, delay) => Action::Arm(token, delay),
            Action::Disarm(token) => Action::Disarm(token),
            Action::Count(scope, name, n) => Action::Count(scope, name, n),
            Action::Gauge(scope, name, value) => Action::Gauge(scope, name, value),
            Action::Observe(name, duration) => Action::Observe(name, duration),
            Action::SpanStart(trace, stage, detail) => Action::SpanStart(trace, stage, detail),
            Action::SpanEnd(trace, stage, detail) => Action::SpanEnd(trace, stage, detail),
            Action::Note(trace, name, detail) => Action::Note(trace, name, detail),
            Action::Own(x) => return Err(x),
        })
    }
}
