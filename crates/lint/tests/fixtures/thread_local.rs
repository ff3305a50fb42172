// Fixture: per-thread state in an engine crate. The bare memo on
// line 5 is a violation; the waived memo and the test-only counter are
// not.
use std::cell::Cell;
thread_local! {
    static LAST_ROUND: Cell<u64> = const { Cell::new(0) };
}

// hh-lint: allow(thread-local) — pure memo keyed on every input of square
thread_local! {
    static SQUARE_MEMO: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

pub fn square(x: u64) -> u64 {
    SQUARE_MEMO.with(|memo| match memo.get() {
        Some((key, value)) if key == x => value,
        _ => {
            let value = x * x;
            memo.set(Some((x, value)));
            value
        }
    })
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    // Test code may keep per-thread state: it steers no outcome.
    thread_local! {
        static CALLS: Cell<u32> = const { Cell::new(0) };
    }

    #[test]
    fn square_is_pure() {
        CALLS.with(|c| c.set(c.get() + 1));
        assert_eq!(super::square(3), 9);
    }
}
