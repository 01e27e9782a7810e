//! Seeded workload inputs: spoken queries generated from the two schemas
//! and passed through the simulated ASR. The program under test receives
//! only the transcripts; the gold SQL is kept for scoring.

use crate::stats::mix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use speakql_asr::{AsrEngine, AsrProfile};
use speakql_data::{employees_db, generate_cases, training_vocabulary, yelp_db};
use speakql_db::Database;
use speakql_grammar::{tokenize_transcript, GeneratorConfig};
use std::collections::HashSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schema {
    Employees,
    Yelp,
}

pub const SCHEMAS: [Schema; 2] = [Schema::Employees, Schema::Yelp];

impl Schema {
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            Schema::Employees => "employees",
            Schema::Yelp => "yelp",
        }
    }
}

/// The two schemas' databases, indexed by [`Schema::index`].
pub fn databases() -> [Database; 2] {
    [employees_db(), yelp_db()]
}

/// One spoken query: what the ASR heard and what the user meant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub schema: Schema,
    pub transcript: String,
    pub gold_sql: String,
}

/// `n` distinct non-empty transcripts of queries over `schema`, a pure
/// function of `seed`: generated SQL (paper grammar caps), then one seeded
/// pass of the `acs_trained` ASR simulator per query.
fn dictations(db: &Database, schema: Schema, n: usize, seed: u64) -> Vec<Query> {
    let seed = mix(seed, schema.index() as u64);
    // Generate with headroom: a few ASR outputs collide and are dropped.
    let cases = generate_cases(db, &GeneratorConfig::paper(), n + n / 16 + 8, seed);
    let asr = AsrEngine::new(AsrProfile::acs_trained(), training_vocabulary(db, &cases));
    let mut seen = HashSet::new();
    let out: Vec<Query> = cases
        .iter()
        .filter_map(|c| {
            let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, c.id as u64 + 1));
            let transcript = asr.transcribe_sql(&c.sql, &mut rng);
            (!tokenize_transcript(&transcript).is_empty() && seen.insert(transcript.clone())).then(
                || Query {
                    schema,
                    transcript,
                    gold_sql: c.sql.clone(),
                },
            )
        })
        .take(n)
        .collect();
    assert_eq!(
        out.len(),
        n,
        "too many colliding transcripts for seed {seed}"
    );
    out
}

/// `per_schema` queries of each schema, interleaved Employees, Yelp,
/// Employees, ..., with every transcript distinct across both schemas.
pub fn interleaved(dbs: &[Database; 2], per_schema: usize, seed: u64) -> Vec<Query> {
    let [emp, yelp] = SCHEMAS.map(|s| dictations(&dbs[s.index()], s, per_schema, seed));
    let mut seen = HashSet::new();
    emp.into_iter()
        .zip(yelp)
        .flat_map(|(a, b)| [a, b])
        .filter(|q| seen.insert(q.transcript.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_yields_identical_inputs() {
        let dbs = databases();
        let a = interleaved(&dbs, 40, 11);
        let b = interleaved(&dbs, 40, 11);
        assert_eq!(a, b);
        assert!(a.len() >= 78, "{}", a.len());
        assert_eq!(a[0].schema, Schema::Employees);
        assert_eq!(a[1].schema, Schema::Yelp);
        let distinct: HashSet<&str> = a.iter().map(|q| q.transcript.as_str()).collect();
        assert_eq!(distinct.len(), a.len());
        let c = interleaved(&dbs, 40, 12);
        assert_ne!(a, c, "another seed must give other inputs");
    }
}
