//! The library path, measured from outside: one request is recomposed
//! from the layer crates' public calls (tokenize, search, literal fill,
//! render), each timed as a span, and the result is checked against what
//! `SpeakQl::transcribe` answers for the same transcript.

use crate::trace::{SpanRef, Tracer};
use speakql_core::{
    Candidate, CounterId, LiteralFinder, Recorder, SpeakQl, Transcription, WindowEncodings,
};
use speakql_grammar::{process_transcript, render_tokens, tokenize_transcript};
use speakql_server::Response;
use std::time::Instant;

/// Work counters summed over the recomposed requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Requests recomposed; each runs one search.
    pub requests: u64,
    pub nodes_visited: u64,
    pub cells_evaluated: u64,
    pub tries_searched: u64,
    pub tries_pruned: u64,
    /// Placeholders filled across every candidate.
    pub fills: u64,
}

/// Literal-voting counters accumulate in the benchmark's own recorder,
/// attached to every `LiteralFinder` it builds.
pub struct Layers {
    pub recorder: Recorder,
    pub work: Work,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            recorder: Recorder::enabled(),
            work: Work::default(),
        }
    }

    pub fn counter(&self, id: CounterId) -> u64 {
        self.recorder.counter(id)
    }

    /// Recompose `transcript` on `engine` from the public layer calls,
    /// recording one span per call under `parent`. Returns the candidates
    /// the engine's own pipeline would build.
    pub fn recompose(
        &mut self,
        engine: &SpeakQl,
        transcript: &str,
        tracer: &mut Tracer,
        parent: SpanRef,
        request: u64,
    ) -> Vec<Candidate> {
        let cfg = engine.config();
        let index = engine.index();
        let t0 = Instant::now();
        let words = tokenize_transcript(transcript);
        let processed = process_transcript(&words);
        let t1 = Instant::now();
        tracer.record("grammar.tokenize", Some(parent), request, t0, t1);
        let (hits, stats) = index.search_with_stats(&processed.masked, &cfg.search);
        let t2 = Instant::now();
        tracer.record("index.search", Some(parent), request, t1, t2);
        self.work.requests += 1;
        self.work.nodes_visited += stats.nodes_visited;
        self.work.cells_evaluated += stats.cells_evaluated;
        self.work.tries_searched += stats.tries_searched as u64;
        self.work.tries_pruned += stats.tries_pruned as u64;

        let encodings = WindowEncodings::new();
        hits.into_iter()
            .map(|hit| {
                let finder = LiteralFinder::new(engine.catalog(), cfg.literal)
                    .with_recorder(self.recorder.clone())
                    .with_encodings(&encodings);
                let structure = index.structure(hit.structure);
                let t0 = Instant::now();
                let literals = finder.fill_aligned(
                    &processed.words,
                    &processed.masked,
                    &structure,
                    cfg.weights,
                );
                let t1 = Instant::now();
                tracer.record("literal.fill", Some(parent), request, t0, t1);
                let bound: Vec<String> = literals.iter().map(|f| f.literal.clone()).collect();
                let sql = render_tokens(&structure.bind(&bound));
                tracer.record("render", Some(parent), request, t1, Instant::now());
                self.work.fills += structure.var_count() as u64;
                Candidate {
                    sql,
                    structure,
                    literals,
                    distance: hit.distance,
                }
            })
            .collect()
    }
}

/// The response the server must send for a transcript whose library-path
/// result, over the same index and schema, is `result`.
pub fn reference(result: &Result<Transcription, speakql_core::SpeakQlError>) -> Response {
    match result {
        Ok(t) => Response::Ok {
            sql: t.best_sql().unwrap_or_default().to_string(),
        },
        Err(e) => Response::Err {
            class: e.class().to_string(),
            message: e.to_string(),
        },
    }
}

/// One traced library-path request: `SpeakQl::transcribe` timed as a span,
/// then the recomposition. `Err` carries a description of a mismatch
/// between the two.
pub fn traced_transcribe(
    layers: &mut Layers,
    engine: &SpeakQl,
    transcript: &str,
    tracer: &mut Tracer,
    root: SpanRef,
    request: u64,
) -> Result<Transcription, String> {
    let t0 = Instant::now();
    let result = engine.transcribe(transcript);
    tracer.record("engine.transcribe", Some(root), request, t0, Instant::now());
    let t = result.map_err(|e| format!("transcribe failed: {e}"))?;
    let recompose = tracer.open("recompose", Some(root), request, Instant::now());
    let candidates = layers.recompose(engine, transcript, tracer, recompose, request);
    tracer.close(recompose, Instant::now());
    if candidates != t.candidates {
        return Err(format!(
            "recomposed pipeline disagrees with transcribe on {transcript:?}"
        ));
    }
    Ok(t)
}
