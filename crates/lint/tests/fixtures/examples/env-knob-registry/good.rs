pub fn profile_mode() -> Option<String> {
    // Reads go through the registry, which debug-asserts the knob is
    // declared + documented.
    soc_types::knobs::raw("SOC_PROFILE")
}
