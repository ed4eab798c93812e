//! Output digests: a 64-bit FNV-1a hash over a canonical text rendering,
//! stable across processes and platforms.

use streamloader::stt::Event;

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorb bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for b in data {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a string followed by a separator, so concatenations differ.
    pub fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(b"\n");
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Canonical renderings of a set of events, sorted: equal multisets give
/// equal lists whatever their storage order.
pub fn canonical(events: impl IntoIterator<Item = impl std::borrow::Borrow<Event>>) -> Vec<String> {
    let mut out: Vec<String> = events
        .into_iter()
        .map(|e| format!("{:?}", e.borrow()))
        .collect();
    out.sort_unstable();
    out
}
