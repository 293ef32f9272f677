// GS-P01 fixture: an actor's dispatch over its engine's message enum.
impl Actor<CoreMsg> for Server {
    fn on_event(&mut self, ctx: &mut Ctx<'_, CoreMsg>, msg: CoreMsg) {
        let ev = match msg {
            CoreMsg::Server(ev) => ev,
            CoreMsg::Client(_) => return, // a named variant, not a wildcard
        };
        match ev {
            ServerEvent::Init => self.init(ctx),
            ServerEvent::Timer(t) => self.on_timer(ctx, t),
            _ => {} // a new event swallowed: must fire
        }
    }
}

fn host(msg: HostMsg) {
    match msg {
        HostMsg::Init => start(),
        rest => drop(rest), // catch-all binding: must fire
    }
}

fn client(ev: ClientEvent) {
    match ev {
        ClientEvent::Start => start(),
        ClientEvent::Stop => stop(),
    }
}
