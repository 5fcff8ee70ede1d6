//! A library crate whose one public function nobody outside calls.

/// Named only inside this crate: `pub-without-outside-user` fires.
pub fn lonely() -> u32 {
    7
}

/// Crate-visible items are never reported.
pub(crate) fn caller() -> u32 {
    lonely()
}
