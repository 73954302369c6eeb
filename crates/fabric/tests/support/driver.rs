//! A client for the end-to-end tests: a [`Gateway`] as a [`Machine`], which
//! a [`Node`](hyperprov_fabric::Node) hosts. Timer 0 starts it; it runs
//! one request at a time, `remaining` of them, and logs how each ended and
//! how long it took.

use std::cell::RefCell;
use std::convert::Infallible;
use std::rc::Rc;

use hyperprov_fabric::{
    Action, Carries, FabricMsg, Gateway, GatewayAction, GatewayDone, GatewayError, GatewayReply,
    GatewayView, Host, Io, Machine,
};
use hyperprov_sim::{ActorId, Context, SimDuration, SimTime};

/// How a request ended, and how long it took.
pub type Ended = (SimDuration, Result<GatewayReply, GatewayError>);

/// What the driver asks the gateway next, given how many requests remain
/// after it and the instant it is issued at.
pub type Request = Box<dyn FnMut(&mut Gateway<()>, u32, SimTime) -> Vec<GatewayAction<()>>>;

pub struct Driver {
    gateway: Gateway<()>,
    request: Request,
    remaining: u32,
    /// When the request in flight was issued.
    started: SimTime,
    log: Rc<RefCell<Vec<Ended>>>,
}

impl Driver {
    pub fn new(
        gateway: Gateway<()>,
        remaining: u32,
        request: impl FnMut(&mut Gateway<()>, u32, SimTime) -> Vec<GatewayAction<()>> + 'static,
        log: &Rc<RefCell<Vec<Ended>>>,
    ) -> Self {
        Driver {
            gateway,
            request: Box::new(request),
            remaining,
            started: SimTime::ZERO,
            log: log.clone(),
        }
    }

    /// Issues the next request, if one remains.
    fn next(&mut self, now: SimTime) -> Vec<Action<Infallible>> {
        if self.remaining == 0 {
            return Vec::new();
        }
        self.remaining -= 1;
        self.started = now;
        let actions = (self.request)(&mut self.gateway, self.remaining, now);
        self.answer(actions, now)
    }

    /// What the gateway answered, with the request that ended logged and
    /// the next one's actions after it.
    fn answer(&mut self, actions: Vec<GatewayAction<()>>, now: SimTime) -> Vec<Action<Infallible>> {
        let mut out = Vec::with_capacity(actions.len());
        let mut ended = false;
        for action in actions {
            match action.split() {
                Ok(action) => out.push(action),
                Err(GatewayDone((), result)) => {
                    self.log.borrow_mut().push((now - self.started, result));
                    ended = true;
                }
            }
        }
        if ended {
            out.extend(self.next(now));
        }
        out
    }
}

impl Machine for Driver {
    type Msg = FabricMsg;
    type Own = Infallible;
    type View = GatewayView;

    fn message(&mut self, src: ActorId, msg: FabricMsg, io: Io<'_>) -> Vec<Action<Infallible>> {
        let actions = self.gateway.on_message(src, msg, io.now, io.rng);
        self.answer(actions, io.now)
    }

    fn timer(&mut self, token: u64, io: Io<'_>) -> Vec<Action<Infallible>> {
        match token {
            0 => self.next(io.now),
            token => {
                let actions = self.gateway.on_timer(token, io.now, io.rng);
                self.answer(actions, io.now)
            }
        }
    }

    fn view(&self) -> GatewayView {
        self.gateway.view()
    }

    fn perform_own<M: Carries<FabricMsg>>(
        &mut self,
        _: &mut Host<M>,
        _: &mut Context<'_, M>,
        own: Infallible,
    ) {
        match own {}
    }
}
