// Fixture: an `Ordering::SeqCst` in the audited handshake file. SeqCst is
// not on the allowlist, so even a justification comment cannot save it.
use std::sync::atomic::{AtomicUsize, Ordering};

pub fn bump(epoch: &AtomicUsize) -> usize {
    // ordering: SeqCst because I could not decide (this justification
    // must not rescue an unlisted variant).
    epoch.fetch_add(1, Ordering::SeqCst)
}
