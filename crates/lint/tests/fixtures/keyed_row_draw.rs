// Fixture: ad-hoc keyed (counter-based) draws inside the executor's
// round bodies. Linted as the executor, the inline `.coin` draw in
// `choose` (line 13), the raw `.word` access in `peek` (line 17) and
// the free helper's `.coin` (line 22) fork the draw-site logic away
// from the agents' own state machines and must be flagged. Linted as
// any other engine file, none is.
pub struct Band<'a> {
    pub key: &'a [DrawKey],
}

impl<'a> Band<'a> {
    pub fn choose(&self, index: usize, round: u64, p: f64) -> bool {
        self.key[index].coin(round, p)
    }

    pub fn peek(&self, index: usize, round: u64) -> u64 {
        self.key[index].word(round)
    }
}

pub fn helper(key: DrawKey, round: u64, p: f64) -> bool {
    key.coin(round, p)
}
