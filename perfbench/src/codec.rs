//! Codec replay: the page codec timed function by function over the
//! (query, response, page) triples a traced run captured.

use std::hint::black_box;
use std::time::Instant;

use hdsampler_model::{ConjunctiveQuery, QueryResponse};
use hdsampler_webform::render::render_results_page;
use hdsampler_webform::scrape::scrape_results_page;
use hdsampler_webform::WebForm;

use crate::common::median;

/// Passes over the captured pages per timed function.
const PASSES: usize = 5;

/// Per-page cost of each codec function.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecCosts {
    /// Pages replayed.
    pub pages: usize,
    /// `WebForm::request_path`, µs per query.
    pub encode_us: f64,
    /// `WebForm::parse_request_path`, µs per request.
    pub parse_us: f64,
    /// `render_results_page`, µs per page.
    pub render_us: f64,
    /// Rendered page size, KB.
    pub render_kb: f64,
    /// `scrape_results_page`, µs per page.
    pub scrape_us: f64,
}

/// Median over [`PASSES`] passes of the per-item time of `f` over `items`.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t0 = Instant::now();
            for item in items {
                f(item);
            }
            t0.elapsed().as_secs_f64() * 1e6 / items.len().max(1) as f64
        })
        .collect();
    median(&passes)
}

/// Rebuild the triples from captured (path, page) pairs, check the codec
/// round trips on every one, and time each function.
///
/// # Errors
/// A captured request that does not parse or re-encode to itself, a page
/// that does not scrape, or a response for which
/// `scrape(render(r)) != r`.
pub fn replay(
    form: &WebForm,
    k: usize,
    captured: &[(String, String)],
) -> Result<CodecCosts, String> {
    let schema = form.schema();
    let mut triples: Vec<(ConjunctiveQuery, QueryResponse, &str, &str)> = Vec::new();
    for (path, page) in captured {
        let query = form
            .parse_request_path(path)
            .map_err(|e| format!("captured request `{path}` does not parse: {e}"))?;
        if form.request_path(&query) != *path {
            return Err(format!("request `{path}` does not re-encode to itself"));
        }
        let resp = scrape_results_page(schema, page).map_err(|e| format!("page: {e}"))?;
        let rendered = render_results_page(schema, &resp, k);
        let back = scrape_results_page(schema, &rendered).map_err(|e| format!("re-scrape: {e}"))?;
        if back != resp {
            return Err(format!("scrape(render(r)) != r for `{path}`"));
        }
        triples.push((query, resp, path, page));
    }
    if triples.is_empty() {
        return Err("no result pages were captured".into());
    }
    let rendered_bytes: usize = triples
        .iter()
        .map(|(_, r, _, _)| render_results_page(schema, r, k).len())
        .sum();
    Ok(CodecCosts {
        pages: triples.len(),
        encode_us: per_item_us(&triples, |(q, _, _, _)| {
            black_box(form.request_path(black_box(q)));
        }),
        parse_us: per_item_us(&triples, |(_, _, p, _)| {
            let _ = black_box(form.parse_request_path(black_box(p)));
        }),
        render_us: per_item_us(&triples, |(_, r, _, _)| {
            black_box(render_results_page(schema, black_box(r), k));
        }),
        render_kb: rendered_bytes as f64 / triples.len() as f64 / 1024.0,
        scrape_us: per_item_us(&triples, |(_, _, _, page)| {
            let _ = black_box(scrape_results_page(schema, black_box(page)));
        }),
    })
}
