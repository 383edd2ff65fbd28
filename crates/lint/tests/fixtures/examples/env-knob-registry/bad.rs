pub fn route_mode() -> String {
    std::env::var("SOC_ROUTE").unwrap_or_default()
}
