// Fixture: raw per-row RNG access inside the executor's round bodies.
// Linted as the executor, both inline `.random_bool` draws — in the
// band's `choose` (line 12) and in the free helper (line 17) — must be
// flagged: agent coins are drawn only inside the agents' own state
// machines. Linted as any other engine file, neither is.
pub struct Band<'a> {
    pub rng: &'a mut [PerRowRng],
}

impl<'a> Band<'a> {
    pub fn choose(&mut self, index: usize, p: f64) -> bool {
        self.rng[index].random_bool(p)
    }
}

pub fn helper(rng: &mut PerRowRng, p: f64) -> bool {
    rng.random_bool(p)
}
