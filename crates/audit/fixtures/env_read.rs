//! Seeded failing case: a knob read straight from the environment,
//! bypassing `wtf_trace::knobs` (and so its strict values and its
//! unknown-name check).

pub fn debug_enabled() -> bool {
    std::env::var_os("WTF_DEBUG").is_some()
}
