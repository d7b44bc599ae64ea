//! The metric vocabulary: names and units exactly as `BENCHMARK.json`
//! lists them.

/// End-to-end metrics (untraced run), in output order.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("sample_gap_p90_ms", "ms"),
    ("fetch_p50_us", "us"),
    ("fetch_p99_us", "us"),
    ("queries_per_sample", "count"),
    ("cpu_ms_per_sample", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_ops_ratio", "ratio"),
    ("hidden_db.calls", "count"),
    ("hidden_db.busy_ms", "ms"),
    ("hidden_db.us_per_call", "us"),
    ("history.requests", "count"),
    ("history.hits", "count"),
    ("history.misses", "count"),
    ("history.evictions", "count"),
    ("history.hit_ratio", "ratio"),
    ("history.self_ms", "ms"),
    ("l2.load_ms", "ms"),
    ("l2.facts_loaded", "count"),
    ("l2.hits", "count"),
    ("l2.misses", "count"),
    ("l2.puts", "count"),
    ("l2.hit_ratio", "ratio"),
    ("l2.bytes_per_put", "B"),
    ("l2.disk_mb", "MB"),
    ("walk.walks_per_sample", "count"),
    ("walk.acceptance_rate", "ratio"),
    ("walk.self_ms", "ms"),
    ("form.encode_us", "us"),
    ("form.parse_us", "us"),
    ("render.us_per_page", "us"),
    ("render.kb_per_page", "KB"),
    ("scrape.us_per_page", "us"),
    ("adapter.self_ms", "ms"),
    ("adapter.encode_ms", "ms"),
    ("adapter.scrape_ms", "ms"),
    ("wire.self_ms", "ms"),
    ("site.self_ms", "ms"),
    ("site.parse_ms", "ms"),
    ("site.render_ms", "ms"),
    ("server.get_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.requests", "count"),
    ("server.connections", "count"),
    ("server.kb_out_per_request", "KB"),
    ("server.wakeups_per_request", "count"),
    ("server.5xx", "count"),
    ("coop.submits", "count"),
    ("coop.polls_per_completion", "count"),
    ("coop.parked_ms", "ms"),
    ("coop.inflight_mean", "count"),
    ("driver.self_ms", "ms"),
    ("estimator.observe_us_per_sample", "us"),
    ("trace.samples_per_s_untraced", "1/s"),
    ("trace.samples_per_s_traced", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// The persistent L2 tier: only `direct-l2` attaches one.
pub const L2_LAYER: &[&str] = &[
    "l2.load_ms",
    "l2.facts_loaded",
    "l2.hits",
    "l2.misses",
    "l2.puts",
    "l2.hit_ratio",
    "l2.bytes_per_put",
    "l2.disk_mb",
];

/// The HTTP server: only `loopback` runs one.
pub const SERVER_LAYER: &[&str] = &[
    "server.get_ms",
    "server.wire_ms",
    "server.requests",
    "server.connections",
    "server.kb_out_per_request",
    "server.wakeups_per_request",
    "server.5xx",
];

/// The cooperative scheduler and its asynchronous wire: only `loopback`.
pub const COOP_LAYER: &[&str] = &[
    "coop.submits",
    "coop.polls_per_completion",
    "coop.parked_ms",
    "coop.inflight_mean",
];

/// The page codec, the adapter, the wire and the site: the web workloads.
pub const WEB_LAYERS: &[&str] = &[
    "form.encode_us",
    "form.parse_us",
    "render.us_per_page",
    "render.kb_per_page",
    "scrape.us_per_page",
    "adapter.self_ms",
    "adapter.encode_ms",
    "adapter.scrape_ms",
    "wire.self_ms",
    "site.self_ms",
    "site.parse_ms",
    "site.render_ms",
];

/// Layers the cooperative driver builds internally (walk machines, the
/// history cache, the adapter's encode and scrape calls): on `loopback`
/// their time is inside `driver.self_ms` and no decorator can split it.
pub const INSIDE_COOP_DRIVER: &[&str] = &["walk.self_ms", "history.self_ms", "adapter.self_ms"];
