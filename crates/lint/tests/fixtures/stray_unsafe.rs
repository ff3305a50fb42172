// Fixture: the `unsafe` keyword, which no file may contain.
// The mentions in this comment and in the string below must NOT trip
// the rule; only the real keyword on line 8 may.
pub fn grow(buffer: &mut Vec<u8>, extra: usize) {
    let note = "unsafe in a string is fine";
    let _ = note;
    buffer.reserve(extra);
    unsafe {
        buffer.set_len(buffer.len() + extra);
    }
}
