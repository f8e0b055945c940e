// D6 fixture: aborts in message-handling paths.
pub fn handle(payload: Option<u32>) -> u32 {
    payload.unwrap()
}

pub fn dispatch(kind: u8) -> u32 {
    match kind {
        0 => handle(None),
        _ => unreachable!("only kind 0 is routed here"),
    }
}
