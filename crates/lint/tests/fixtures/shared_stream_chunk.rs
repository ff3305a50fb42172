// Fixture: a shared-stream draw inside chunk-phase code. The
// `AntChunk` impl below runs on the round workers, so its
// `StreamKind::Environment` draw (line 12) is order-dependent and must
// be flagged; the per-ant draw (line 13) and the constructor's shared
// draw outside any chunk impl (line 19) must not.
pub struct AntChunk<'a> {
    pub seeds: &'a [u64],
}

impl<'a> AntChunk<'a> {
    pub fn process(&mut self, base: u64, ant: u64) -> (u64, u64) {
        let shared = derive_seed(base, StreamKind::Environment, 0);
        let per_ant = derive_seed(base, StreamKind::AgentEnvironment, ant);
        (shared, per_ant)
    }
}

pub fn build_environment(base: u64) -> u64 {
    derive_seed(base, StreamKind::Environment, 0)
}
