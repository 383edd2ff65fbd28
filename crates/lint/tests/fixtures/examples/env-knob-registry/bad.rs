pub fn profile_mode() -> String {
    std::env::var("SOC_PROFILE").unwrap_or_default()
}
